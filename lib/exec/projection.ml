module S = Mmdb_storage

let project_schema schema ~cols =
  match cols with
  | [] -> invalid_arg "Projection: empty column list"
  | key :: _ ->
    let picked =
      List.map
        (fun name ->
          match S.Schema.column_index schema name with
          | i -> S.Schema.column_at schema i
          | exception Not_found ->
            (* perf_lint: error path; raises immediately *)
            invalid_arg ("Projection: unknown column " ^ name))
        cols
    in
    S.Schema.create ~key picked

let projector schema ~cols out_schema =
  let idxs = List.map (S.Schema.column_index schema) cols in
  let widths =
    List.map (fun i -> (S.Schema.column_at schema i).S.Schema.width) idxs
  in
  let srcs = List.map (S.Schema.offset schema) idxs in
  let total = S.Schema.tuple_width out_schema in
  fun tuple ->
    let out = Bytes.make total '\000' in
    let dst = ref 0 in
    List.iter2
      (fun src w ->
        Bytes.blit tuple src out !dst w;
        dst := !dst + w)
      srcs widths;
    out

let sort_distinct ~mem_pages ~cols rel =
  if mem_pages <= 1 then invalid_arg "Projection.sort_distinct: mem_pages <= 1";
  let schema = S.Relation.schema rel in
  let env = S.Relation.env rel in
  let out_schema = project_schema schema ~cols in
  let project = projector schema ~cols out_schema in
  let disk = S.Relation.disk rel in
  let out =
    S.Relation.create ~disk ~name:(S.Relation.name rel ^ ".proj")
      ~schema:out_schema
  in
  let projected =
    S.Relation.create ~disk ~name:(S.Relation.name rel ^ ".projtmp")
      ~schema:out_schema
  in
  S.Relation.iter_tuples_nocharge rel (fun tuple ->
      S.Env.charge_move env;
      S.Relation.append_nocharge projected (project tuple));
  S.Relation.seal projected;
  let sorted = External_sort.sort ~mem_pages projected in
  (* Duplicates of the whole projected tuple share the first column, so
     they are adjacent up to that key: dedupe within each equal-key run. *)
  let run_key = ref None in
  let run_seen = Hashtbl.create 64 in
  S.Relation.iter_tuples ~mode:S.Disk.Seq sorted (fun tuple ->
      let key = S.Tuple.key_bytes out_schema tuple in
      let same =
        match !run_key with
        | Some k ->
          S.Env.charge_comp env;
          Bytes.equal k key
        | None -> false
      in
      if not same then begin
        run_key := Some key;
        Hashtbl.reset run_seen
      end;
      let whole = Bytes.to_string tuple in
      S.Env.charge_comp env;
      if not (Hashtbl.mem run_seen whole) then begin
        Hashtbl.replace run_seen whole ();
        S.Relation.append out tuple
      end);
  S.Relation.free_pages sorted;
  S.Relation.free_pages projected;
  S.Relation.seal out;
  out

let distinct ~mem_pages ~fudge ~cols rel =
  if mem_pages <= 1 then invalid_arg "Projection.distinct: mem_pages <= 1";
  let schema = S.Relation.schema rel in
  let env = S.Relation.env rel in
  let out_schema = project_schema schema ~cols in
  let project = projector schema ~cols out_schema in
  let disk = S.Relation.disk rel in
  let out =
    S.Relation.create ~disk ~name:(S.Relation.name rel ^ ".proj")
      ~schema:out_schema
  in
  (* Stage the projected tuples in a temporary relation sized by the
     projected width, then dedupe it hybrid-style on the whole tuple. *)
  let projected =
    S.Relation.create ~disk ~name:(S.Relation.name rel ^ ".projtmp")
      ~schema:out_schema
  in
  S.Relation.iter_tuples_nocharge rel (fun tuple ->
      S.Env.charge_move env;
      S.Relation.append_nocharge projected (project tuple));
  S.Relation.seal projected;
  let hash = Hash_fn.whole_tuple ~env ~seed:0xd15 in
  let emit_unique seen tuple =
    let k = Bytes.to_string tuple in
    S.Env.charge_comp env;
    if not (Hashtbl.mem seen k) then begin
      Hashtbl.replace seen k ();
      S.Relation.append out tuple
    end
  in
  let r_pages = S.Relation.npages projected in
  let b = Hybrid_hash.partitions ~mem_pages ~fudge ~r_pages in
  let q = Hybrid_hash.q_fraction ~mem_pages ~fudge ~r_pages in
  let write_mode = if b <= 1 then S.Disk.Seq else S.Disk.Rand in
  let resident, buckets =
    Partition.split_fraction ~scan:Partition.Free ~q ~nbuckets:b ~hash
      ~write_mode projected
  in
  List.iter (emit_unique (Hashtbl.create 1024)) resident;
  Array.iter
    (fun bucket ->
      if S.Relation.ntuples bucket > 0 then begin
        let seen = Hashtbl.create 256 in
        Partition.iter_bucket bucket (fun t ->
            Hash_fn.charge hash;
            emit_unique seen t)
      end)
    buckets;
  Partition.free buckets;
  S.Relation.free_pages projected;
  S.Relation.seal out;
  out
