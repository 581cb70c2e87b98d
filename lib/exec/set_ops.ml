module S = Mmdb_storage

let check_compatible l r =
  if
    S.Schema.tuple_width (S.Relation.schema l)
    <> S.Schema.tuple_width (S.Relation.schema r)
  then invalid_arg "Set_ops: tuple widths differ"

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
  (* Both inputs split on the same whole-tuple hash, so equal tuples meet
     in the same bucket pair; q = 0 spills everything once b > 0. *)
  let split rel =
    Partition.split_fraction ~scan:Partition.Free ~q:0.0 ~nbuckets:b
      ~hash:(Hash_fn.whole_tuple ~env ~seed:0x5e7) ~write_mode rel
  in
  let mem_l, disk_l = split l in
  let mem_r, disk_r = split r in
  resolve mem_l mem_r;
  let load bucket =
    let acc = ref [] in
    if S.Relation.ntuples bucket > 0 then
      Partition.iter_bucket bucket (fun t -> acc := t :: !acc);
    List.rev !acc
  in
  Array.iteri
    (fun i bl ->
      let li = load bl in
      let ri = load disk_r.(i) in
      if li <> [] || ri <> [] then resolve li ri)
    disk_l;
  Partition.free disk_l;
  Partition.free disk_r;
  S.Relation.seal out;
  out

let union ~mem_pages ~fudge l r =
  run Union ~mem_pages ~fudge l r

let intersection ~mem_pages ~fudge l r =
  run Intersection ~mem_pages ~fudge l r

let difference ~mem_pages ~fudge l r =
  run Difference ~mem_pages ~fudge l r
