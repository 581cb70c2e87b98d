module S = Mmdb_storage
module E = Mmdb_exec

(* Every plan bottoms out in scans and index lookups: the leftmost names
   the disk and environment the query runs on. *)
let rec base_relation catalog = function
  | Optimizer.P_scan name | Optimizer.P_index_lookup { table = name; _ } ->
    Catalog.find catalog name
  | Optimizer.P_filter { input; _ }
  | Optimizer.P_project { input; _ }
  | Optimizer.P_aggregate { input; _ }
  | Optimizer.P_order_by { input; _ }
  | Optimizer.P_set_op { left = input; _ }
  | Optimizer.P_join { left = input; _ } -> base_relation catalog input

let disk_of catalog plan = S.Relation.disk (base_relation catalog plan)

let rekey rel key =
  let schema = S.Relation.schema rel in
  if S.Schema.key_index schema = S.Schema.column_index schema key then rel
  else S.Relation.with_schema rel (S.Schema.with_key schema key)

(* An opened node's output: a relation (a catalog table, or a blocking
   node's sealed result), or a stream that pushes each encoded tuple into
   a sink when it is drained, once. *)
type output =
  | Rel of S.Relation.t
  | Stream of S.Schema.t * ((bytes -> unit) -> unit)

let schema_of = function Rel rel -> S.Relation.schema rel | Stream (s, _) -> s

(* A consumed result's pages are freed, unless it is a catalog table. *)
let release catalog rel =
  if not (Catalog.mem catalog (S.Relation.name rel)) then S.Relation.free_pages rel

let drain catalog out sink =
  match out with
  | Rel rel ->
    S.Relation.iter_tuples_nocharge rel sink;
    release catalog rel
  | Stream (_, push) -> push sink

(* A stream becomes a relation only for a blocking operator, {!run}'s
   root or {!run_traced}'s nodes. *)
let materialise disk = function
  | Rel rel -> rel
  | Stream (schema, push) ->
    let out = S.Relation.create ~disk ~name:"#stream" ~schema in
    push (S.Relation.append_nocharge out);
    S.Relation.seal out;
    out

(* Open one plan node; children open through [recurse] so callers can
   interpose instrumentation (see {!run_traced}).  A scan passes its
   table; index lookups, filters, plain projections and joins stream; an
   aggregation, DISTINCT or set operation drains its inputs into its
   group table as they arrive; a join's inputs and ORDER BY run their
   [Mmdb_exec] operators over materialised inputs.  Inputs are freed once
   consumed. *)
let open_node ~recurse catalog cfg plan =
  let disk = disk_of catalog plan in
  let inputs = ref [] in
  let input child =
    let rel = materialise disk (recurse catalog cfg child) in
    inputs := rel :: !inputs;
    rel
  in
  let blocking out =
    List.iter (fun rel -> if rel != out then release catalog rel) !inputs;
    Rel out
  in
  let mem_pages = cfg.Optimizer.mem_pages and fudge = cfg.Optimizer.fudge in
  (* Tuples a grouping node drains into its group table as they arrive. *)
  let group_input schema push = E.Aggregate.Stream { disk; schema; push } in
  match plan with
  | Optimizer.P_scan name -> Rel (Catalog.find catalog name)
  | Optimizer.P_index_lookup { table; value; _ } ->
    let schema = S.Relation.schema (Catalog.find catalog table) in
    let hit = Catalog.lookup catalog table (S.Tuple.encode_key schema value) in
    Stream (schema, fun sink -> Option.iter sink hit)
  | Optimizer.P_filter { input; pred } ->
    (* One comparison per predicate evaluation. *)
    let env = S.Disk.env disk in
    let src = recurse catalog cfg input in
    let keep = Algebra.eval_predicate (schema_of src) pred in
    Stream
      ( schema_of src,
        fun sink ->
          drain catalog src (fun t ->
              S.Env.charge_comp env;
              if keep t then sink t) )
  | Optimizer.P_project { input; columns; distinct } -> (
    let src = recurse catalog cfg input in
    let out_schema = E.Projection.project_schema (schema_of src) ~cols:columns in
    let project = E.Projection.projector (schema_of src) ~cols:columns out_schema in
    let push sink = drain catalog src (fun t -> sink (project t)) in
    match distinct with
    | None -> Stream (out_schema, push)
    | Some g ->
      Rel (fst (E.Aggregate.distinct ~mem_pages ~fudge ~groups:g.Optimizer.est_groups (group_input out_schema push))))
  | Optimizer.P_join { left; right; left_key; right_key; choice } ->
    let lrel = rekey (input left) left_key in
    let rrel = rekey (input right) right_key in
    let build, probe, build_is_left =
      if choice.Optimizer.swapped then (rrel, lrel, false)
      else (lrel, rrel, true)
    in
    let l_schema = S.Relation.schema lrel and r_schema = S.Relation.schema rrel in
    let out_schema = E.Join_common.result_schema ~r_schema:l_schema ~s_schema:r_schema in
    Stream
      ( out_schema,
        fun sink ->
          let emit build_tup probe_tup =
            let left_tup, right_tup =
              if build_is_left then (build_tup, probe_tup) else (probe_tup, build_tup)
            in
            sink
              (E.Join_common.concat_tuples ~r_schema:l_schema ~s_schema:r_schema
                 left_tup right_tup)
          in
          ignore (E.Joiner.run choice.Optimizer.algorithm ~mem_pages ~fudge build probe emit);
          List.iter (release catalog) !inputs )
  | Optimizer.P_aggregate { input; group_by; aggs; grouping } ->
    let src = recurse catalog cfg input in
    Rel
      (fst
         (E.Aggregate.hybrid ~mem_pages ~fudge ~groups:grouping.Optimizer.est_groups
            (group_input (S.Schema.with_key (schema_of src) group_by) (drain catalog src))
            aggs))
  | Optimizer.P_set_op { op; left; right; grouping } ->
    (* Sequential lets: the left child must open first so traced paths
       ($.0 = left) are deterministic. *)
    let l = recurse catalog cfg left in
    let r = recurse catalog cfg right in
    let source out = group_input (schema_of out) (drain catalog out) in
    Rel
      (fst
         (E.Aggregate.set_op op ~mem_pages ~fudge ~groups:grouping.Optimizer.est_groups
            (source l) (source r)))
  | Optimizer.P_order_by { input = child; column; descending } ->
    let sorted = E.External_sort.sort ~mem_pages (rekey (input child) column) in
    if not descending then blocking sorted
    else begin
      (* Reverse scan materialised back-to-front. *)
      let acc = ref [] in
      S.Relation.iter_tuples_nocharge sorted (fun t -> acc := t :: !acc);
      let out = S.Relation.of_tuples ~disk ~name:"#desc" ~schema:(S.Relation.schema sorted) !acc in
      S.Relation.free_pages sorted;
      blocking out
    end

let rec open_tree catalog cfg plan = open_node ~recurse:open_tree catalog cfg plan

let run catalog cfg plan = materialise (disk_of catalog plan) (open_tree catalog cfg plan)

let decode schema iter =
  let acc = ref [] in
  iter (fun tuple -> acc := S.Tuple.decode schema tuple :: !acc);
  List.rev !acc

let run_rows catalog cfg plan =
  let out = open_tree catalog cfg plan in
  decode (schema_of out) (drain catalog out)

type node_obs = {
  path : string;
  kind : string;
  output_tuples : int;
  output_pages : int;
  output_tuples_per_page : int;
  total : S.Counters.t;
  self : S.Counters.t;
  total_seconds : float;
  self_seconds : float;
}

let kind_of = function
  | Optimizer.P_scan name -> "scan:" ^ name
  | Optimizer.P_index_lookup { table; _ } -> "index:" ^ table
  | Optimizer.P_filter _ -> "filter"
  | Optimizer.P_project { distinct; _ } ->
    if distinct = None then "project" else "project-distinct"
  | Optimizer.P_join { choice; _ } ->
    "join:" ^ E.Joiner.name choice.Optimizer.algorithm
  | Optimizer.P_aggregate _ -> "aggregate"
  | Optimizer.P_order_by _ -> "order-by"
  | Optimizer.P_set_op { op; _ } -> (
    match op with
    | Algebra.Union -> "union"
    | Algebra.Intersect -> "intersect"
    | Algebra.Except -> "except")

let run_traced catalog cfg plan =
  let env = S.Relation.env (base_relation catalog plan) in
  let disk = disk_of catalog plan in
  (* Each node's observation, in post-order.  A node's output is
     materialised (uncharged) before its counters are read, so a stream's
     work is charged to the node that produced it. *)
  let acc = ref [] in
  let rec go path plan =
    let before = S.Counters.snapshot env.S.Env.counters in
    let t0 = S.Env.elapsed env in
    let child_diffs = ref [] in
    let child_seconds = ref 0.0 in
    let idx = ref 0 in
    let recurse _catalog _cfg child =
      let cb = S.Counters.snapshot env.S.Env.counters in
      let ct0 = S.Env.elapsed env in
      let r = go (Printf.sprintf "%s.%d" path !idx) child in
      incr idx;
      child_diffs :=
        S.Counters.diff ~after:env.S.Env.counters ~before:cb :: !child_diffs;
      child_seconds := !child_seconds +. (S.Env.elapsed env -. ct0);
      r
    in
    let out = materialise disk (open_node ~recurse catalog cfg plan) in
    let total = S.Counters.diff ~after:env.S.Env.counters ~before in
    let total_seconds = S.Env.elapsed env -. t0 in
    (* The node's own work is the total minus every child's activity. *)
    let self =
      List.fold_left
        (fun a c -> S.Counters.diff ~after:a ~before:c)
        total !child_diffs
    in
    let tuples = S.Relation.ntuples out in
    let per_page = S.Relation.tuples_per_page out in
    acc :=
      {
        path;
        kind = kind_of plan;
        output_tuples = tuples;
        output_pages = (tuples + per_page - 1) / per_page;
        output_tuples_per_page = per_page;
        total;
        self;
        total_seconds;
        self_seconds = total_seconds -. !child_seconds;
      }
      :: !acc;
    Rel out
  in
  let result = materialise disk (go "$" plan) in
  (result, List.rev !acc)

let query catalog cfg expr = run catalog cfg (Optimizer.plan catalog cfg expr)

let rows rel = decode (S.Relation.schema rel) (S.Relation.iter_tuples_nocharge rel)
