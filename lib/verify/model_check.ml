module D = Mmdb_util.Diag
module U = Mmdb_util
module S = Mmdb_storage
module E = Mmdb_exec
module JM = Mmdb_model.Join_model
module XM = Mmdb_model.Exec_model
module AM = Mmdb_model.Access_model
module P = Mmdb_planner

(* ------------------------------------------------------------------ *)
(* Tolerance bands                                                     *)
(* ------------------------------------------------------------------ *)

type band = { lo : float; hi : float; abs : float }

let band ?(abs = 0.0) lo hi = { lo; hi; abs }

type tolerance = {
  comps : band;
  hashes : band;
  moves : band;
  swaps : band;
  seq_ios : band;
  rand_ios : band;
  seconds : band;
}

(* Operators that never charge (scan and plain projection run on the
   nocharge paths): predicted zero, observed must be zero. *)
let silent_band = band 1.0 1.0
let silent =
  {
    comps = silent_band;
    hashes = silent_band;
    moves = silent_band;
    swaps = silent_band;
    seq_ios = silent_band;
    rand_ios = silent_band;
    seconds = band ~abs:1e-12 1.0 1.0;
  }

(* The model's terms are the paper's idealized bulk formulas; the
   executable pays per-element realities.  Each declared band states the
   constant-factor room one operator class is allowed (DESIGN.md explains
   every entry):

   - hash operators (build/probe/partition) count hashes and moves
     exactly, so those bands are tight; probe comparisons depend on hash
     collisions versus the model's F·|S| guess, so comps get headroom.
   - priority-queue operators charge at most 2 comparisons per sift level
     against the model's single n·log2 m term, and heapify is cheaper
     than n·log2 n, so sort comps sit in [0.3, 2.5] with swaps tighter.
   - page counts round up per partition/run, so I/O bands carry a small
     absolute allowance in addition to the ratio. *)
let hash_tolerance =
  {
    comps = band ~abs:8.0 0.3 1.8;
    hashes = band ~abs:2.0 0.9 1.4;
    moves = band ~abs:2.0 0.9 1.4;
    swaps = band ~abs:0.0 1.0 1.0;
    seq_ios = band ~abs:8.0 0.5 1.6;
    rand_ios = band ~abs:8.0 0.5 1.6;
    seconds = band ~abs:1e-6 0.4 1.7;
  }

let sort_tolerance =
  {
    comps = band ~abs:8.0 0.3 2.5;
    hashes = band ~abs:0.0 1.0 1.0;
    moves = band ~abs:2.0 0.5 1.5;
    swaps = band ~abs:8.0 0.3 1.6;
    seq_ios = band ~abs:8.0 0.5 1.6;
    rand_ios = band ~abs:8.0 0.5 1.6;
    seconds = band ~abs:1e-6 0.4 1.8;
  }

(* An index probe charges comparisons only.  The B+-tree's per-node
   binary searches each round up, so it can pay a few over ⌈log2 n⌉; an
   AVL hit above the leaves pays fewer than log2 n, and the tallest
   balanced tree is 1.44·log2 n deep.  The absolute slack covers tiny
   tables, where log2 n is near zero. *)
let index_tolerance =
  { silent with comps = band ~abs:2.0 0.5 1.5; seconds = band ~abs:6e-6 0.5 1.5 }

(* A filter charges exactly one comparison per tuple it tests. *)
let filter_tolerance =
  { silent with comps = band 1.0 1.0; seconds = band ~abs:1e-9 1.0 1.0 }

let tolerance_for kind =
  if kind = "filter" then filter_tolerance
  else if kind = "project" then silent
  else if String.starts_with ~prefix:"scan:" kind then silent
  else if String.starts_with ~prefix:"index:" kind then index_tolerance
  else if kind = "join:sort-merge" || kind = "order-by" then sort_tolerance
  else hash_tolerance

let scale_band f b = { lo = b.lo /. f; hi = b.hi *. f; abs = b.abs *. f }

let scale_tolerance f t =
  if f = 1.0 then t
  else
    {
      comps = scale_band f t.comps;
      hashes = scale_band f t.hashes;
      moves = scale_band f t.moves;
      swaps = scale_band f t.swaps;
      seq_ios = scale_band f t.seq_ios;
      rand_ios = scale_band f t.rand_ios;
      seconds = scale_band f t.seconds;
    }

(* ------------------------------------------------------------------ *)
(* Counter projection and band checks                                  *)
(* ------------------------------------------------------------------ *)

let ops_of_counters (c : S.Counters.t) =
  {
    JM.comps = float_of_int c.S.Counters.comparisons;
    hashes = float_of_int c.S.Counters.hashes;
    moves = float_of_int c.S.Counters.moves;
    swaps = float_of_int c.S.Counters.swaps;
    seq_ios = float_of_int (c.S.Counters.seq_reads + c.S.Counters.seq_writes);
    rand_ios =
      float_of_int (c.S.Counters.rand_reads + c.S.Counters.rand_writes);
  }

let check_class ~path ~kind ~code ~label b ~predicted ~observed =
  let lo = (b.lo *. predicted) -. b.abs
  and hi = (b.hi *. predicted) +. b.abs in
  if observed < lo || observed > hi then
    [
      D.error ~code ~path
        (Printf.sprintf
           "%s: observed %s %.6g outside [%.6g, %.6g] (predicted %.6g, band \
            %.2f-%.2fx +/- %g)"
           kind label observed lo hi predicted b.lo b.hi b.abs);
    ]
  else []

let check_ops ~path ~kind ~tol ~(predicted : JM.ops) ~(observed : JM.ops)
    ~predicted_seconds ~observed_seconds =
  check_class ~path ~kind ~code:"MODEL001" ~label:"comparisons" tol.comps
    ~predicted:predicted.JM.comps ~observed:observed.JM.comps
  @ check_class ~path ~kind ~code:"MODEL002" ~label:"hashes" tol.hashes
      ~predicted:predicted.JM.hashes ~observed:observed.JM.hashes
  @ check_class ~path ~kind ~code:"MODEL003" ~label:"moves" tol.moves
      ~predicted:predicted.JM.moves ~observed:observed.JM.moves
  @ check_class ~path ~kind ~code:"MODEL004" ~label:"swaps" tol.swaps
      ~predicted:predicted.JM.swaps ~observed:observed.JM.swaps
  @ check_class ~path ~kind ~code:"MODEL005" ~label:"sequential I/Os"
      tol.seq_ios ~predicted:predicted.JM.seq_ios
      ~observed:observed.JM.seq_ios
  @ check_class ~path ~kind ~code:"MODEL006" ~label:"random I/Os"
      tol.rand_ios ~predicted:predicted.JM.rand_ios
      ~observed:observed.JM.rand_ios
  @ check_class ~path ~kind ~code:"MODEL007" ~label:"seconds" tol.seconds
      ~predicted:predicted_seconds ~observed:observed_seconds

(* ------------------------------------------------------------------ *)
(* Plan conformance                                                    *)
(* ------------------------------------------------------------------ *)

type node_report = {
  path : string;
  kind : string;
  predicted : JM.ops;
  observed : JM.ops;
  predicted_seconds : float;
  observed_seconds : float;
  diags : D.t list;
}

let input_of_obs (o : P.Executor.node_obs) =
  XM.input ~tuples:o.P.Executor.output_tuples ~pages:o.P.Executor.output_pages
    ~tuples_per_page:o.P.Executor.output_tuples_per_page

(* Plan nodes in the executor's post-order with the executor's paths, so
   the static walk and the traced execution can be zipped positionally. *)
let plan_nodes plan =
  let acc = ref [] in
  let rec go path p =
    (match p with
    | P.Optimizer.P_scan _ | P.Optimizer.P_index_lookup _ -> ()
    | P.Optimizer.P_filter { input; _ }
    | P.Optimizer.P_project { input; _ }
    | P.Optimizer.P_aggregate { input; _ }
    | P.Optimizer.P_order_by { input; _ } ->
      (* perf_lint: plan paths are a few segments; audit-scale *)
      go (path ^ ".0") input
    | P.Optimizer.P_join { left; right; _ }
    | P.Optimizer.P_set_op { left; right; _ } ->
      (* perf_lint: plan paths are a few segments; audit-scale *)
      go (path ^ ".0") left;
      go (path ^ ".1") right);
    acc := (path, p) :: !acc
  in
  go "$" plan;
  List.rev !acc

let model011 ~path ~kind msg =
  D.warning ~code:"MODEL011" ~path
    (Printf.sprintf "%s: workload outside model validity (%s); conformance \
                     skipped" kind msg)

(* Predict one node's ops from the observed sizes of its children.  The
   model is evaluated at *actual* input cardinalities so estimation error
   (checked separately as MODEL009) does not contaminate conformance. *)
let predict_node catalog (cfg : P.Optimizer.config) ~kind plan
    (children : P.Executor.node_obs list) (self_obs : P.Executor.node_obs) =
  let mem_pages = cfg.P.Optimizer.mem_pages and fudge = cfg.P.Optimizer.fudge in
  let tpp = max 1 self_obs.P.Executor.output_tuples_per_page in
  let out = self_obs.P.Executor.output_tuples in
  let grouping ~comp_specs (g : P.Optimizer.grouping) ~groups i =
    XM.aggregate_ops ~mem_pages ~fudge ~comp_specs ~est_groups:g.P.Optimizer.est_groups
      ~groups ~out_tuples:out ~out_tuples_per_page:tpp i
  in
  let one f =
    match children with
    | [ c ] -> f c
    | _ -> Error (kind ^ " expects one input")
  and two f =
    match children with
    | [ l; r ] -> f l r
    | _ -> Error (kind ^ " expects two inputs")
  in
  match plan with
  | P.Optimizer.P_scan _ -> Ok JM.zero_ops
  | P.Optimizer.P_filter _ ->
    one (fun c ->
        Ok { JM.zero_ops with JM.comps = float_of_int c.P.Executor.output_tuples })
  | P.Optimizer.P_index_lookup { table; kind; _ } ->
    (* Section 2's per-lookup comparisons at the table's current size. *)
    let am =
      {
        AM.default with
        AM.r_tuples = max 1 (S.Relation.ntuples (P.Catalog.find catalog table));
      }
    in
    let comps =
      match kind with
      | P.Catalog.Avl_index -> AM.avl_comparisons am
      | P.Catalog.Btree_index -> AM.btree_comparisons am
    in
    Ok { JM.zero_ops with JM.comps }
  | P.Optimizer.P_project { distinct = None; _ } -> Ok JM.zero_ops
  | P.Optimizer.P_project { distinct = Some g; _ } ->
    (* Grouped as the projected tuples arrive; a spill stores and splits
       those, at the output's width. *)
    one (fun child ->
      let tuples = child.P.Executor.output_tuples in
      Ok (grouping ~comp_specs:0 g ~groups:out
            (XM.input ~tuples ~pages:(XM.pages_of ~tuples ~tuples_per_page:tpp)
               ~tuples_per_page:tpp)))
  | P.Optimizer.P_join { choice; _ } ->
    two (fun l r ->
      let build, probe =
        if choice.P.Optimizer.swapped then (r, l) else (l, r)
      in
      let w =
        {
          JM.r_pages = build.P.Executor.output_pages;
          s_pages = probe.P.Executor.output_pages;
          r_tuples_per_page = max 1 build.P.Executor.output_tuples_per_page;
          s_tuples_per_page = max 1 probe.P.Executor.output_tuples_per_page;
          cost = { S.Cost.table2 with S.Cost.fudge };
        }
      in
      match JM.validate w ~m:mem_pages with
      | () ->
        Ok
          (JM.ops_of_algorithm
             (E.Joiner.name choice.P.Optimizer.algorithm)
             w ~m:mem_pages)
      | exception Invalid_argument msg -> Error msg)
  | P.Optimizer.P_aggregate { aggs; grouping = g; _ } ->
    one (fun child ->
      let comp_specs =
        List.length
          (List.filter
             (function
               | E.Aggregate.Min _ | E.Aggregate.Max _ -> true
               | _ -> false)
             aggs)
      in
      Ok (grouping ~comp_specs g ~groups:out (input_of_obs child)))
  | P.Optimizer.P_order_by _ ->
    one (fun child -> Ok (XM.sort_ops ~mem_pages (input_of_obs child)))
  | P.Optimizer.P_set_op { op; grouping = g; _ } ->
    (* One group per distinct tuple of either input: for duplicate-free
       inputs, what the emitted groups and the inputs' sizes imply. *)
    two (fun l r ->
      let nl = l.P.Executor.output_tuples and nr = r.P.Executor.output_tuples in
      let groups =
        match op with
        | P.Algebra.Union -> out
        | P.Algebra.Intersect -> nl + nr - out
        | P.Algebra.Except -> out + nr
      in
      Ok
        (grouping ~comp_specs:0 g ~groups
           (XM.input ~tuples:(nl + nr)
              ~pages:(l.P.Executor.output_pages + r.P.Executor.output_pages)
              ~tuples_per_page:tpp)))

(* Children of node [path] among the traced observations: entries whose
   path is [path ^ "." ^ digit+] with no further dot. *)
let children_of path (obs : P.Executor.node_obs list) =
  let prefix = path ^ "." in
  let pl = String.length prefix in
  List.filter
    (fun (o : P.Executor.node_obs) ->
      let p = o.P.Executor.path in
      String.length p > pl
      && String.sub p 0 pl = prefix
      && not (String.contains_from p pl '.'))
    obs

let check_planned ?(tolerance_scale = 1.0) catalog cfg plan =
  let _result, obs = P.Executor.run_traced catalog cfg plan in
  let nodes = plan_nodes plan in
  let cost = { S.Cost.table2 with S.Cost.fudge = cfg.P.Optimizer.fudge } in
  List.map2
    (fun (path, node) (o : P.Executor.node_obs) ->
      assert (path = o.P.Executor.path);
      let kind = o.P.Executor.kind in
      let observed = ops_of_counters o.P.Executor.self in
      let observed_seconds = o.P.Executor.self_seconds in
      match predict_node catalog cfg ~kind node (children_of path obs) o with
      | Error msg ->
        {
          path;
          kind;
          predicted = JM.zero_ops;
          observed;
          predicted_seconds = 0.0;
          observed_seconds;
          diags = [ model011 ~path ~kind msg ];
        }
      | Ok predicted ->
        let predicted_seconds = JM.seconds cost predicted in
        let tol = scale_tolerance tolerance_scale (tolerance_for kind) in
        let diags =
          check_ops ~path ~kind ~tol ~predicted ~observed
            ~predicted_seconds ~observed_seconds
        in
        { path; kind; predicted; observed; predicted_seconds;
          observed_seconds; diags })
    nodes obs

let check_plan ?tolerance_scale catalog cfg expr =
  check_planned ?tolerance_scale catalog cfg (P.Optimizer.plan catalog cfg expr)

let report_diags reports = List.concat_map (fun r -> r.diags) reports

let pp_report ppf r =
  Format.fprintf ppf "%-8s %-18s predicted %a / %.4fs@,%-8s %-18s observed  \
                      %a / %.4fs"
    r.path r.kind JM.pp_ops r.predicted r.predicted_seconds "" "" JM.pp_ops
    r.observed r.observed_seconds;
  List.iter (fun d -> Format.fprintf ppf "@,  %a" D.pp d) r.diags

(* ------------------------------------------------------------------ *)
(* Stand-alone join conformance (drives all four algorithms directly,  *)
(* independent of which one the optimizer would pick)                  *)
(* ------------------------------------------------------------------ *)

let workload_of ~fudge r s =
  {
    JM.r_pages = S.Relation.npages r;
    s_pages = S.Relation.npages s;
    r_tuples_per_page = max 1 (S.Relation.tuples_per_page r);
    s_tuples_per_page = max 1 (S.Relation.tuples_per_page s);
    cost = { S.Cost.table2 with S.Cost.fudge };
  }

let check_join ?(tolerance_scale = 1.0) algo ~mem_pages ~fudge r s =
  let name = E.Joiner.name algo in
  let kind = "join:" ^ name in
  let w = workload_of ~fudge r s in
  match JM.validate w ~m:mem_pages with
  | exception Invalid_argument msg -> [ model011 ~path:"$" ~kind msg ]
  | () ->
    let predicted = JM.ops_of_algorithm name w ~m:mem_pages in
    let stats = E.Joiner.run_measured algo ~mem_pages ~fudge r s in
    let observed = ops_of_counters stats.E.Op_stats.counters in
    let tol = scale_tolerance tolerance_scale (tolerance_for kind) in
    check_ops ~path:"$" ~kind ~tol ~predicted ~observed
      ~predicted_seconds:(JM.seconds w.JM.cost predicted)
      ~observed_seconds:stats.E.Op_stats.seconds

(* ------------------------------------------------------------------ *)
(* Optimizer optimality lint                                           *)
(* ------------------------------------------------------------------ *)

(* Relative slack before a chosen plan counts as costlier than the
   optimum. *)
let eps = 1e-9

let lint_optimality catalog cfg expr =
  let plan = P.Optimizer.plan catalog cfg expr in
  let choices = P.Optimizer.join_choices plan in
  if choices = [] then []
  else begin
    let cost = { S.Cost.table2 with S.Cost.fudge = cfg.P.Optimizer.fudge } in
    let priced =
      List.map
        (fun (c : P.Optimizer.join_choice) ->
          let w = c.P.Optimizer.est_workload
          and m = c.P.Optimizer.est_mem_pages in
          List.map
            (fun (nm, ops) -> (nm, JM.seconds w.JM.cost ops))
            (JM.all_four_ops w ~m))
        choices
    in
    (* Join costs are additive and independent, and rounded float
       addition is monotone, so summing each join's cheapest algorithm
       (in join order, as the 4^k assignments would be summed) gives
       exactly the minimum over all of them. *)
    let best =
      List.map
        (List.fold_left
           (fun (bn, bc) (nm, c) -> if c < bc then (nm, c) else (bn, bc))
           ("", infinity))
        priced
    in
    let best_total = List.fold_left (fun acc (_, c) -> acc +. c) 0.0 best in
    let chosen = P.Optimizer.estimated_cost plan in
    let optimality =
      if chosen > (best_total *. (1.0 +. eps)) +. 1e-12 then
        [
          D.error ~code:"MODEL008" ~path:"$"
            (Printf.sprintf
               "optimizer chose a plan costing %.6fs but the cheapest \
                assignment costs %.6fs (%s)"
               chosen best_total
               (String.concat ", " (List.map fst best)));
        ]
      else []
    in
    (* MODEL010: the per-term annotation must re-price to the annotated
       seconds (same constants, float-associativity slack only). *)
    let repriced = JM.seconds cost (P.Optimizer.estimated_ops plan) in
    let annotation =
      if Float.abs (repriced -. chosen) > (1e-9 *. Float.abs chosen) +. 1e-12
      then
        [
          D.error ~code:"MODEL010" ~path:"$"
            (Printf.sprintf
               "plan cost annotation %.9fs disagrees with seconds(ops) = \
                %.9fs"
               chosen repriced);
        ]
      else []
    in
    optimality @ annotation
  end

(* ------------------------------------------------------------------ *)
(* Selectivity conformance                                             *)
(* ------------------------------------------------------------------ *)

(* Selinger-style estimates are coarse (1/ndistinct equalities, 1/3 magic
   fallbacks), so the declared band is wide; it still catches broken
   statistics or an estimator regression of an order of magnitude. *)
let selectivity_band = band ~abs:64.0 0.05 20.0

let check_selectivity catalog expr ~actual =
  let est = P.Selectivity.estimate catalog expr in
  check_class ~path:"$" ~kind:"selectivity" ~code:"MODEL009"
    ~label:"output tuples" selectivity_band ~predicted:est
    ~observed:(float_of_int actual)

(* ------------------------------------------------------------------ *)
(* Seeded conformance suite                                            *)
(* ------------------------------------------------------------------ *)

type case = { name : string; reports : node_report list; diags : D.t list }

let case_diags c = report_diags c.reports @ c.diags

let suite_diags cases = List.concat_map case_diags cases

let suite_ok cases = not (D.has_errors (suite_diags cases))

let corpus_schema name =
  S.Schema.create ~key:"k"
    [
      S.Schema.column "k" S.Schema.Int;
      S.Schema.column "v" S.Schema.Int;
      S.Schema.column ~width:84 ("pad_" ^ name) S.Schema.Fixed_string;
    ]

let corpus_table ~disk ~rng ~name ~pages =
  let tpp = 40 in
  let n = pages * tpp in
  let schema = corpus_schema name in
  S.Relation.of_tuples ~disk ~name ~schema
    (List.init n (fun i ->
         S.Tuple.encode schema
           [
             S.Tuple.VInt (U.Xorshift.int rng n);
             S.Tuple.VInt i;
             S.Tuple.VStr "";
           ]))

let run_suite ?(seed = 42) ?(tolerance_scale = 1.0) () =
  if not (tolerance_scale > 0.0) then
    invalid_arg "Model_check.run_suite: tolerance_scale <= 0";
  let env = S.Env.create () in
  let disk = S.Disk.create ~env ~page_size:4096 in
  let rng = U.Xorshift.create seed in
  let r = corpus_table ~disk ~rng ~name:"r" ~pages:24 in
  let s = corpus_table ~disk ~rng ~name:"s" ~pages:60 in
  let t = corpus_table ~disk ~rng ~name:"t" ~pages:12 in
  let catalog = P.Catalog.create () in
  List.iter (P.Catalog.register catalog) [ r; s; t ];
  (* Unique keys 0..1999 under each index kind, for the point probes. *)
  List.iter
    (fun (name, kind) ->
      let schema = corpus_schema name in
      P.Catalog.register catalog
        (S.Relation.of_tuples ~disk ~name ~schema
           (List.init 2000 (fun i ->
                S.Tuple.encode schema
                  [ S.Tuple.VInt i; S.Tuple.VInt (U.Xorshift.int rng 2000); S.Tuple.VStr "" ])));
      P.Catalog.create_index catalog name kind)
    [ ("u", P.Catalog.Btree_index); ("w", P.Catalog.Avl_index) ];
  let cfg =
    { P.Optimizer.mem_pages = 16; fudge = 1.2; allow_hash = true }
  in
  let big_cfg = { cfg with P.Optimizer.mem_pages = 256 } in
  let conformance ?(cfg = cfg) name expr =
    let reports = check_plan ~tolerance_scale catalog cfg expr in
    { name; reports; diags = lint_optimality catalog cfg expr }
  in
  let join_case name algo ~mem_pages =
    {
      name;
      reports = [];
      diags = check_join ~tolerance_scale algo ~mem_pages ~fudge:1.2 r s;
    }
  in
  let selectivity_case name expr =
    let plan = P.Optimizer.plan catalog cfg expr in
    let result, _obs = P.Executor.run_traced catalog cfg plan in
    {
      name;
      reports = [];
      diags =
        check_selectivity catalog expr ~actual:(S.Relation.ntuples result);
    }
  in
  let open P.Algebra in
  [
    (* Every join algorithm, resident and spilled. *)
    join_case "join/sort-merge/spilled" E.Joiner.Sort_merge_join
      ~mem_pages:16;
    join_case "join/simple/spilled" E.Joiner.Simple_hash_join ~mem_pages:16;
    join_case "join/grace/spilled" E.Joiner.Grace_hash_join ~mem_pages:16;
    join_case "join/hybrid/spilled" E.Joiner.Hybrid_hash_join ~mem_pages:16;
    join_case "join/sort-merge/resident" E.Joiner.Sort_merge_join
      ~mem_pages:256;
    join_case "join/hybrid/resident" E.Joiner.Hybrid_hash_join ~mem_pages:256;
    (* Planned pipelines: conformance of every traced node + the lint. *)
    conformance "plan/join"
      (join ~left_key:"k" ~right_key:"k" (scan "r") (scan "s"));
    conformance "plan/filter-join"
      (join ~left_key:"k" ~right_key:"k"
         (select ~column:"v" ~op:Lt ~value:(S.Tuple.VInt 480) (scan "r"))
         (scan "s"));
    conformance "plan/two-joins" ~cfg:big_cfg
      (join ~left_key:"r_k" ~right_key:"k"
         (join ~left_key:"k" ~right_key:"k" (scan "r") (scan "t"))
         (scan "s"));
    (* s's groups fill 12 pages: one pass at |M| = 16, spilled at 8. *)
    conformance "plan/aggregate"
      (aggregate ~group_by:"k"
         ~aggs:[ E.Aggregate.Count; E.Aggregate.Sum "v"; E.Aggregate.Max "v" ]
         (scan "s"));
    conformance "plan/aggregate/spilled"
      ~cfg:{ cfg with P.Optimizer.mem_pages = 8 }
      (aggregate ~group_by:"k"
         ~aggs:[ E.Aggregate.Count; E.Aggregate.Sum "v"; E.Aggregate.Max "v" ]
         (scan "s"));
    (* s's distinct k values fill 3 pages of the group table, its
       (k, v) pairs 10: one pass at |M| = 16, spilled at 8. *)
    conformance "plan/distinct" (project ~distinct:true ~columns:[ "k" ] (scan "s"));
    conformance "plan/distinct/spilled"
      ~cfg:{ cfg with P.Optimizer.mem_pages = 8 }
      (project ~distinct:true ~columns:[ "k"; "v" ] (scan "s"));
    (* Sort the random column: replacement selection on presorted input
       makes one long run, which the expected-runs formula (random input)
       does not model. *)
    conformance "plan/order-by" (order_by ~column:"k" (scan "s"));
    (* A set operation's group table holds both inputs' tuples: r and
       t fill 36 pages, so it spills at |M| = 16 and more so at 8. *)
    conformance "plan/union" (set_op Union (scan "r") (scan "t"));
    conformance "plan/union/spilled"
      ~cfg:{ cfg with P.Optimizer.mem_pages = 8 }
      (set_op Union (scan "r") (scan "t"));
    conformance "plan/intersect" (set_op Intersect (scan "r") (scan "s"));
    conformance "plan/except" (set_op Except (scan "s") (scan "r"));
    (* Point probes through each index kind. *)
    conformance "plan/index-lookup/btree"
      (select ~column:"k" ~op:Eq ~value:(S.Tuple.VInt 1234) (scan "u"));
    conformance "plan/index-lookup/avl"
      (select ~column:"k" ~op:Eq ~value:(S.Tuple.VInt 77) (scan "w"));
    (* Estimator vs reality. *)
    selectivity_case "selectivity/eq"
      (select ~column:"k" ~op:Eq ~value:(S.Tuple.VInt 17) (scan "s"));
    selectivity_case "selectivity/range"
      (select ~column:"k" ~op:Lt ~value:(S.Tuple.VInt 600) (scan "s"));
    selectivity_case "selectivity/join"
      (join ~left_key:"k" ~right_key:"k" (scan "r") (scan "t"));
  ]

let code_catalogue =
  [
    ("MODEL001", "observed comparisons diverge from the cost model");
    ("MODEL002", "observed hashes diverge from the cost model");
    ("MODEL003", "observed moves diverge from the cost model");
    ("MODEL004", "observed swaps diverge from the cost model");
    ("MODEL005", "observed sequential I/Os diverge from the cost model");
    ("MODEL006", "observed random I/Os diverge from the cost model");
    ("MODEL007", "observed simulated seconds diverge from the cost model");
    ("MODEL008", "optimizer chose a plan above the enumerated minimum");
    ("MODEL009", "selectivity estimate diverges from actual cardinality");
    ("MODEL010", "plan cost annotation inconsistent with its per-term ops");
    ("MODEL011",
     "workload outside model validity; conformance skipped (warning)");
  ]
