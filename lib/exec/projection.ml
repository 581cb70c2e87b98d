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

(* [rel]'s tuples projected to [out_schema], as they are scanned. *)
let projected rel ~cols out_schema sink =
  let project = projector (S.Relation.schema rel) ~cols out_schema in
  S.Relation.iter_tuples_nocharge rel (fun tuple -> sink (project tuple))

let sort_distinct ~mem_pages ~cols rel =
  if mem_pages <= 1 then invalid_arg "Projection.sort_distinct: mem_pages <= 1";
  let env = S.Relation.env rel in
  let out_schema = project_schema (S.Relation.schema rel) ~cols in
  let disk = S.Relation.disk rel in
  let out =
    S.Relation.create ~disk ~name:(S.Relation.name rel ^ ".proj")
      ~schema:out_schema
  in
  (* Sort the projected tuples on the whole tuple, so duplicates are
     adjacent, and keep the first of each run. *)
  let staged =
    S.Relation.create ~disk ~name:(S.Relation.name rel ^ ".projtmp")
      ~schema:(Aggregate.whole out_schema)
  in
  projected rel ~cols out_schema (fun tuple ->
      S.Env.charge_move env;
      S.Relation.append_nocharge staged tuple);
  S.Relation.seal staged;
  let sorted = External_sort.sort ~mem_pages staged in
  let last = ref None in
  S.Relation.iter_tuples ~mode:S.Disk.Seq sorted (fun tuple ->
      let dup =
        match !last with
        | Some prev ->
          S.Env.charge_comp env;
          Bytes.equal prev tuple
        | None -> false
      in
      if not dup then begin
        last := Some tuple;
        S.Relation.append out tuple
      end);
  S.Relation.free_pages sorted;
  S.Relation.free_pages staged;
  S.Relation.seal out;
  out

let distinct ~mem_pages ~fudge ~groups ~cols rel =
  let schema = project_schema (S.Relation.schema rel) ~cols in
  Aggregate.distinct ~mem_pages ~fudge ~groups
    (Aggregate.Stream
       { disk = S.Relation.disk rel; schema; push = projected rel ~cols schema })
