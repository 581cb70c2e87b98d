(* A query as the layer calls [Db] makes for it — check, plan, run,
   decode — each in its own span, and the executor's per-node counters
   for it.  Shared by olap and point-mix. *)

module S = Mmdb_storage
module P = Mmdb_planner
module Db = Mmdb.Db

(* The configuration [Db.create] gives its planner. *)
let planner_cfg db =
  { P.Optimizer.mem_pages = Db.mem_pages db; fudge = S.Cost.table2.S.Cost.fudge; allow_hash = true }

type totals = {
  mutable join : S.Counters.t list;  (* self counters of every join node *)
  mutable join_sim : float;  (* their simulated self-seconds *)
  mutable join_est : float;  (* the optimizer's estimate for them *)
  mutable agg_hashes : int;
  mutable filter_comps : int;
  mutable examined : int;  (* tuples out of base-table scans *)
  mutable returned : int;  (* tuples out of plan roots *)
}

let new_totals () =
  { join = []; join_sim = 0.0; join_est = 0.0; agg_hashes = 0; filter_comps = 0; examined = 0; returned = 0 }

(* The calls [Db] makes for a query, timed.  [Executor.run] is the one
   [Db] makes, so the executor's span holds no per-node bookkeeping.
   Returns the rows and the plan, for [observe]. *)
let run_expr tr db expr =
  let cat = Db.catalog db and cfg = planner_cfg db in
  (match Trace.span tr "plan_check.check" (fun () -> P.Plan_check.check_schema cat expr) with
  | Ok _ -> ()
  | Error _ -> invalid_arg "plan check failed");
  let plan = Trace.span tr "optimizer.plan" (fun () -> P.Optimizer.plan cat cfg expr) in
  let rel = Trace.span tr "executor.run" (fun () -> P.Executor.run cat cfg plan) in
  let rows = Trace.span tr "executor.rows" (fun () -> P.Executor.rows rel) in
  (rows, plan)

(* Runs [plan] again through [Executor.run_traced], outside any span,
   and adds its per-node counters to [totals]. *)
let observe db totals plan =
  let _, nodes = P.Executor.run_traced (Db.catalog db) (planner_cfg db) plan in
  List.iter
    (fun (nd : P.Executor.node_obs) ->
      if String.starts_with ~prefix:"join:" nd.kind then begin
        totals.join <- nd.self :: totals.join;
        totals.join_sim <- totals.join_sim +. nd.self_seconds
      end
      else if nd.kind = "aggregate" then totals.agg_hashes <- totals.agg_hashes + nd.self.S.Counters.hashes
      else if nd.kind = "filter" then
        totals.filter_comps <- totals.filter_comps + nd.self.S.Counters.comparisons
      else if String.starts_with ~prefix:"scan:" nd.kind then
        totals.examined <- totals.examined + nd.output_tuples;
      if nd.path = "$" then totals.returned <- totals.returned + nd.output_tuples)
    nodes;
  List.iter
    (fun (c : P.Optimizer.join_choice) -> totals.join_est <- totals.join_est +. c.est_seconds)
    (P.Optimizer.join_choices plan)

(* Per-operator counters, per query. *)
let operator_values totals ~queries =
  let per_q x = float_of_int x /. float_of_int (max 1 queries) in
  let sum f = List.fold_left (fun a c -> a + f c) 0 totals.join in
  [
    ("exec.join.hashes", per_q (sum (fun c -> c.S.Counters.hashes)));
    ("exec.join.comps", per_q (sum (fun c -> c.S.Counters.comparisons)));
    ("exec.join.moves", per_q (sum (fun c -> c.S.Counters.moves)));
    ("exec.join.seq_ios", per_q (sum (fun c -> c.S.Counters.seq_reads + c.S.Counters.seq_writes)));
    ("exec.join.rand_ios", per_q (sum (fun c -> c.S.Counters.rand_reads + c.S.Counters.rand_writes)));
    ("exec.aggregate.hashes", per_q totals.agg_hashes);
    ("exec.filter.comps", per_q totals.filter_comps);
    ("executor.rows_examined_per_row", float_of_int totals.examined /. float_of_int (max 1 totals.returned));
  ]

let planner_named tr =
  let us name = Bench.mean_ns_of (Trace.find tr name) /. 1e3 in
  [
    Bench.metric "sql.parse_us" "us" (us "sql.parse");
    Bench.metric "plan_check.check_us" "us" (us "plan_check.check");
    Bench.metric "optimizer.plan_us" "us" (us "optimizer.plan");
    Bench.metric "executor.run_us" "us" (us "executor.run");
    Bench.metric "executor.rows_us" "us" (us "executor.rows");
  ]
