module S = Mmdb_storage
module E = Mmdb_exec
module O = Mmdb_overload.Overload

(* Deadline check at an operator boundary: raised between nodes, when no
   intermediate result is mid-construction and nothing is pinned, so an
   expired query aborts with the pool clean by construction. *)
let check_deadline env d =
  let now = S.Sim_clock.now env.S.Env.clock in
  if O.Deadline.expired d ~now then begin
    O.note_code env.S.Env.counters.S.Counters.ovld "OVLD005";
    O.shed ~code:"OVLD005" ~site:"exec.node"
      (Printf.sprintf "query deadline exceeded by %.6f s at an operator \
                       boundary"
         (now -. O.Deadline.expires d))
  end

(* race_check: planner-local temp-name tick, single-domain; a duplicate
   temp name would be cosmetic, not a safety issue *)
let temp_counter = ref 0

let temp_name prefix =
  incr temp_counter;
  Printf.sprintf "%s#%d" prefix !temp_counter

let base_relation catalog plan =
  let rec first_scan = function
    | Optimizer.P_scan name | Optimizer.P_index_lookup { table = name; _ } -> Some name
    | Optimizer.P_filter { input; _ }
    | Optimizer.P_project { input; _ }
    | Optimizer.P_aggregate { input; _ } -> first_scan input
    | Optimizer.P_order_by { input; _ } -> first_scan input
    | Optimizer.P_set_op { left; right; _ } -> (
      match first_scan left with Some n -> Some n | None -> first_scan right)
    | Optimizer.P_join { left; right; _ } -> (
      match first_scan left with Some n -> Some n | None -> first_scan right)
  in
  match first_scan plan with
  | Some name -> Catalog.find catalog name
  | None -> invalid_arg "Executor: plan references no base relation"

let disk_of catalog plan = S.Relation.disk (base_relation catalog plan)

let rekey rel key =
  let schema = S.Relation.schema rel in
  if S.Schema.key_index schema = S.Schema.column_index schema key then rel
  else S.Relation.with_schema rel (S.Schema.with_key schema key)

(* One plan node's own work; children execute through [recurse] so callers
   can interpose instrumentation (see {!run_traced}). *)
let node_output ~recurse catalog cfg plan =
  let disk = disk_of catalog plan in
  match plan with
  | Optimizer.P_scan name -> Catalog.find catalog name
  | Optimizer.P_index_lookup { table; value; _ } ->
    let schema = S.Relation.schema (Catalog.find catalog table) in
    let out = S.Relation.create ~disk ~name:(temp_name "index") ~schema in
    Option.iter (S.Relation.append_nocharge out)
      (Catalog.lookup catalog table (S.Tuple.encode_key schema value));
    S.Relation.seal out;
    out
  | Optimizer.P_filter { input; pred } ->
    let src = recurse catalog cfg input in
    let schema = S.Relation.schema src in
    let out =
      S.Relation.create ~disk ~name:(temp_name "filter") ~schema
    in
    S.Relation.iter_tuples_nocharge src (fun tuple ->
        if Algebra.eval_predicate schema pred tuple then
          S.Relation.append_nocharge out tuple);
    S.Relation.seal out;
    out
  | Optimizer.P_project { input; columns; distinct } ->
    let src = recurse catalog cfg input in
    if distinct then
      E.Projection.distinct ~mem_pages:cfg.Optimizer.mem_pages
        ~fudge:cfg.Optimizer.fudge ~cols:columns src
    else begin
      let schema = S.Relation.schema src in
      let out_schema = E.Projection.project_schema schema ~cols:columns in
      let out =
        S.Relation.create ~disk ~name:(temp_name "project") ~schema:out_schema
      in
      let project = E.Projection.projector schema ~cols:columns out_schema in
      S.Relation.iter_tuples_nocharge src (fun tuple ->
          S.Relation.append_nocharge out (project tuple));
      S.Relation.seal out;
      out
    end
  | Optimizer.P_join { left; right; left_key; right_key; choice } ->
    let lrel = rekey (recurse catalog cfg left) left_key in
    let rrel = rekey (recurse catalog cfg right) right_key in
    let build, probe, build_is_left =
      if choice.Optimizer.swapped then (rrel, lrel, false)
      else (lrel, rrel, true)
    in
    let l_schema = S.Relation.schema lrel in
    let r_schema = S.Relation.schema rrel in
    let out_schema =
      E.Join_common.result_schema ~r_schema:l_schema ~s_schema:r_schema
    in
    let out = S.Relation.create ~disk ~name:(temp_name "join") ~schema:out_schema in
    let emit build_tup probe_tup =
      let left_tup, right_tup =
        if build_is_left then (build_tup, probe_tup) else (probe_tup, build_tup)
      in
      S.Relation.append_nocharge out
        (E.Join_common.concat_tuples ~r_schema:l_schema ~s_schema:r_schema
           left_tup right_tup)
    in
    ignore
      (E.Joiner.run choice.Optimizer.algorithm
         ~mem_pages:cfg.Optimizer.mem_pages ~fudge:cfg.Optimizer.fudge build
         probe emit);
    S.Relation.seal out;
    out
  | Optimizer.P_aggregate { input; group_by; aggs } ->
    let src = rekey (recurse catalog cfg input) group_by in
    E.Aggregate.hybrid ~mem_pages:cfg.Optimizer.mem_pages
      ~fudge:cfg.Optimizer.fudge src aggs
  | Optimizer.P_set_op { op; left; right } ->
    (* Sequential lets: the left child must execute first so traced paths
       ($.0 = left) are deterministic. *)
    let l = recurse catalog cfg left in
    let r = recurse catalog cfg right in
    let f =
      match op with
      | Algebra.Union -> E.Set_ops.union
      | Algebra.Intersect -> E.Set_ops.intersection
      | Algebra.Except -> E.Set_ops.difference
    in
    f ~mem_pages:cfg.Optimizer.mem_pages ~fudge:cfg.Optimizer.fudge l r
  | Optimizer.P_order_by { input; column; descending } ->
    let src = rekey (recurse catalog cfg input) column in
    let sorted = E.External_sort.sort ~mem_pages:cfg.Optimizer.mem_pages src in
    if not descending then sorted
    else begin
      (* Reverse scan materialised back-to-front. *)
      let acc = ref [] in
      S.Relation.iter_tuples_nocharge sorted (fun t -> acc := t :: !acc);
      let out =
        S.Relation.create ~disk ~name:(temp_name "order_desc")
          ~schema:(S.Relation.schema sorted)
      in
      List.iter (S.Relation.append_nocharge out) !acc;
      S.Relation.free_pages sorted;
      S.Relation.seal out;
      out
    end

(* A child's output is dead once its parent has consumed it, so its pages
   are freed then, unless it is a catalog table (the rule [Db] applies to
   a query's result) or the parent's own output. *)
let run_node ~recurse catalog cfg plan =
  let inputs = ref [] in
  let recurse catalog cfg child =
    let rel = recurse catalog cfg child in
    if not (List.memq rel !inputs) then inputs := rel :: !inputs;
    rel
  in
  let out = node_output ~recurse catalog cfg plan in
  List.iter
    (fun rel ->
      if rel != out && not (Catalog.mem catalog (S.Relation.name rel)) then
        S.Relation.free_pages rel)
    !inputs;
  out

let rec run_plain catalog cfg plan = run_node ~recurse:run_plain catalog cfg plan

let run ?deadline catalog cfg plan =
  match deadline with
  | None -> run_plain catalog cfg plan
  | Some d ->
    let env = S.Relation.env (base_relation catalog plan) in
    let rec go catalog cfg plan =
      check_deadline env d;
      run_node ~recurse:go catalog cfg plan
    in
    go catalog cfg plan

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
    if distinct then "project-distinct" else "project"
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
    let out = run_node ~recurse catalog cfg plan in
    let total = S.Counters.diff ~after:env.S.Env.counters ~before in
    let total_seconds = S.Env.elapsed env -. t0 in
    (* The node's own work is the total minus every child's activity. *)
    let self =
      List.fold_left
        (fun a c -> S.Counters.diff ~after:a ~before:c)
        total !child_diffs
    in
    acc :=
      {
        path;
        kind = kind_of plan;
        output_tuples = S.Relation.ntuples out;
        output_pages = S.Relation.npages out;
        output_tuples_per_page = S.Relation.tuples_per_page out;
        total;
        self;
        total_seconds;
        self_seconds = total_seconds -. !child_seconds;
      }
      :: !acc;
    out
  in
  let result = go "$" plan in
  (result, List.rev !acc)

let query ?deadline catalog cfg expr =
  run ?deadline catalog cfg (Optimizer.plan catalog cfg expr)

let query_checked catalog cfg expr =
  match Plan_check.check_schema catalog expr with
  | Error diags -> Error diags
  | Ok _ -> Ok (query catalog cfg expr)

let rows rel =
  let schema = S.Relation.schema rel in
  let acc = ref [] in
  S.Relation.iter_tuples_nocharge rel (fun tuple ->
      acc := S.Tuple.decode schema tuple :: !acc);
  List.rev !acc
