module S = Mmdb_storage

let divide ~mem_pages ~fudge ~divisor_col r s =
  if mem_pages <= 1 then invalid_arg "Division.divide: mem_pages <= 1";
  let r_schema = S.Relation.schema r in
  let s_schema = S.Relation.schema s in
  let env = S.Relation.env r in
  let disk = S.Relation.disk r in
  let div_idx =
    try S.Schema.column_index r_schema divisor_col
    with Not_found -> invalid_arg ("Division: unknown column " ^ divisor_col)
  in
  let div_width = (S.Schema.column_at r_schema div_idx).S.Schema.width in
  if div_width <> S.Schema.key_width s_schema then
    invalid_arg "Division: divisor column width differs from S's key";
  let quotient_cols =
    List.filter_map
      (fun (c : S.Schema.column) ->
        if c.S.Schema.name = divisor_col then None else Some c.S.Schema.name)
      (S.Schema.columns r_schema)
  in
  if quotient_cols = [] then
    invalid_arg "Division: R has no quotient columns";
  let out_schema = Projection.project_schema r_schema ~cols:quotient_cols in
  let project_quotient = Projection.projector r_schema ~cols:quotient_cols out_schema in
  (* Divisor key set, in memory. *)
  let divisor = Hashtbl.create 64 in
  S.Relation.iter_tuples_nocharge s (fun tuple ->
      S.Env.charge_hash env;
      Hashtbl.replace divisor
        (Bytes.unsafe_to_string (S.Tuple.key_bytes s_schema tuple))
        ());
  let needed = Hashtbl.length divisor in
  let out =
    S.Relation.create ~disk ~name:(S.Relation.name r ^ ".div")
      ~schema:out_schema
  in
  let div_off = S.Schema.offset r_schema div_idx in
  (* Resolve one batch of R tuples: group by quotient bytes, collect the
     divisor values seen, emit covered groups. *)
  let resolve tuples =
    let groups = Hashtbl.create 256 in
    List.iter
      (fun tuple ->
        S.Env.charge_hash env;
        let q = Bytes.to_string (project_quotient tuple) in
        let dv = Bytes.sub_string tuple div_off div_width in
        S.Env.charge_comp env;
        if Hashtbl.mem divisor dv then begin
          let seen =
            match Hashtbl.find_opt groups q with
            | Some s -> s
            | None ->
              let s = Hashtbl.create 8 in
              S.Env.charge_move env;
              Hashtbl.replace groups q s;
              s
          in
          Hashtbl.replace seen dv ()
        end
        else if needed = 0 && not (Hashtbl.mem groups q) then begin
          (* Empty divisor: every quotient group qualifies vacuously. *)
          S.Env.charge_move env;
          Hashtbl.replace groups q (Hashtbl.create 1)
        end)
      tuples;
    let emitted = ref [] in
    Hashtbl.iter
      (fun q seen ->
        if Hashtbl.length seen >= needed then emitted := q :: !emitted)
      groups;
    List.iter
      (fun q -> S.Relation.append out (Bytes.of_string q))
      (List.sort String.compare !emitted)
  in
  (* Hybrid-style split of R by quotient hash: groups never straddle
     partitions, so each resolves independently. *)
  let b =
    Hybrid_hash.partitions ~mem_pages ~fudge ~r_pages:(S.Relation.npages r)
  in
  if b = 0 then begin
    let acc = ref [] in
    S.Relation.iter_tuples_nocharge r (fun t -> acc := t :: !acc);
    resolve (List.rev !acc)
  end
  else begin
    let write_mode = if b <= 1 then S.Disk.Seq else S.Disk.Rand in
    let buckets =
      Array.init b (fun i ->
          let rel =
            S.Relation.create ~disk
              ~name:(Printf.sprintf "%s.div%d" (S.Relation.name r) i)
              ~schema:r_schema
          in
          S.Relation.set_write_mode rel write_mode;
          rel)
    in
    S.Relation.iter_tuples_nocharge r (fun tuple ->
        S.Env.charge_hash env;
        let q = Bytes.to_string (project_quotient tuple) in
        (* perf_lint: the seeded structural hash IS the partition function *)
        let i = (Hashtbl.hash (q, 0xd1f) land max_int) mod b in
        S.Env.charge_move env;
        S.Relation.append buckets.(i) tuple);
    Array.iter S.Relation.seal buckets;
    Array.iter
      (fun bucket ->
        if S.Relation.ntuples bucket > 0 then begin
          let acc = ref [] in
          S.Relation.iter_tuples ~mode:S.Disk.Seq bucket (fun t ->
              acc := t :: !acc);
          resolve (List.rev !acc)
        end)
      buckets;
    Array.iter S.Relation.free_pages buckets
  end;
  S.Relation.seal out;
  out
