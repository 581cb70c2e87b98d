module S = Mmdb_storage

let check_compatible l r =
  if
    S.Schema.tuple_width (S.Relation.schema l)
    <> S.Schema.tuple_width (S.Relation.schema r)
  then invalid_arg "Set_ops: tuple widths differ"

(* Partition a relation into [b] buckets by a hash of the whole tuple
   (charged: hash + move per spilled tuple, page writes in [write_mode]).
   [b = 0] keeps everything in memory. *)
let split_whole env ~b ~write_mode rel suffix =
  let schema = S.Relation.schema rel in
  let disk = S.Relation.disk rel in
  let hash_whole tuple =
    S.Env.charge_hash env;
    (* perf_lint: the seeded structural hash IS the partition function *)
    Hashtbl.hash (Bytes.to_string tuple, 0x5e7)
  in
  if b = 0 then begin
    let acc = ref [] in
    S.Relation.iter_tuples_nocharge rel (fun t ->
        ignore (hash_whole t);
        acc := t :: !acc);
    ([| List.rev !acc |], [||])
  end
  else begin
    let buckets =
      Array.init b (fun i ->
          let r =
            S.Relation.create ~disk
              ~name:(Printf.sprintf "%s.%s%d" (S.Relation.name rel) suffix i)
              ~schema
          in
          S.Relation.set_write_mode r write_mode;
          r)
    in
    S.Relation.iter_tuples_nocharge rel (fun t ->
        let h = hash_whole t in
        let i = (h land max_int) mod b in
        S.Env.charge_move env;
        S.Relation.append buckets.(i) t);
    Array.iter S.Relation.seal buckets;
    ([||], buckets)
  end

type mode = Union | Intersection | Difference

let run mode ~mem_pages ~fudge l r =
  if mem_pages <= 1 then invalid_arg "Set_ops: mem_pages <= 1";
  check_compatible l r;
  let env = S.Relation.env l in
  let schema = S.Relation.schema l in
  let disk = S.Relation.disk l in
  let out =
    S.Relation.create ~disk ~name:(S.Relation.name l ^ ".setop") ~schema
  in
  (* Bucket count from the larger input, hybrid-style. *)
  let max_pages = max (S.Relation.npages l) (S.Relation.npages r) in
  let b = Hybrid_hash.partitions ~mem_pages ~fudge ~r_pages:max_pages in
  let write_mode = if b <= 1 then S.Disk.Seq else S.Disk.Rand in
  let resolve l_tuples r_tuples =
    (* Membership table over the right side. *)
    let right = Hashtbl.create 256 in
    List.iter
      (fun t ->
        S.Env.charge_move env;
        Hashtbl.replace right (Bytes.to_string t) ())
      r_tuples;
    let emitted = Hashtbl.create 256 in
    let emit t =
      let k = Bytes.to_string t in
      S.Env.charge_comp env;
      if not (Hashtbl.mem emitted k) then begin
        Hashtbl.replace emitted k ();
        S.Relation.append out t
      end
    in
    List.iter
      (fun t ->
        let k = Bytes.to_string t in
        S.Env.charge_comp env;
        let in_right = Hashtbl.mem right k in
        match mode with
        | Union -> emit t
        | Intersection -> if in_right then emit t
        | Difference -> if not in_right then emit t)
      l_tuples;
    match mode with
    | Union -> List.iter emit r_tuples
    | Intersection | Difference -> ()
  in
  let mem_l, disk_l = split_whole env ~b ~write_mode l "u" in
  let mem_r, disk_r = split_whole env ~b ~write_mode r "v" in
  if b = 0 then resolve mem_l.(0) mem_r.(0)
  else
    for i = 0 to b - 1 do
      let load bucket =
        let acc = ref [] in
        S.Relation.iter_tuples ~mode:S.Disk.Seq bucket (fun t ->
            acc := t :: !acc);
        List.rev !acc
      in
      let li =
        if S.Relation.ntuples disk_l.(i) = 0 then []
        else load disk_l.(i)
      in
      let ri =
        if S.Relation.ntuples disk_r.(i) = 0 then []
        else load disk_r.(i)
      in
      if li <> [] || ri <> [] then resolve li ri
    done;
  if b > 0 then begin
    Array.iter S.Relation.free_pages disk_l;
    Array.iter S.Relation.free_pages disk_r
  end;
  S.Relation.seal out;
  out

let union ~mem_pages ~fudge l r =
  run Union ~mem_pages ~fudge l r

let intersection ~mem_pages ~fudge l r =
  run Intersection ~mem_pages ~fudge l r

let difference ~mem_pages ~fudge l r =
  run Difference ~mem_pages ~fudge l r
