(* Tests for the cost-model conformance analyzer (Model_check): the
   seeded suite runs clean at the declared tolerances, a deliberately
   mis-modeled workload is flagged through a stable MODEL code, the
   optimality lint certifies stock plans and catches a deliberately
   crippled optimizer, and the selectivity check fires on divergence. *)

module S = Mmdb_storage
module E = Mmdb_exec
module P = Mmdb_planner
module A = P.Algebra
module U = Mmdb_util
module D = U.Diag
module V = Mmdb_verify
module MC = V.Model_check
module JM = Mmdb_model.Join_model

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

(* Shared corpus: three tables of 100-byte tuples with a random key
   column "k" and a sequential (presorted) column "v". *)
let corpus () =
  let env = S.Env.create () in
  let disk = S.Disk.create ~env ~page_size:4096 in
  let rng = U.Xorshift.create 2026 in
  let mk name pages =
    let schema =
      S.Schema.create ~key:"k"
        [
          S.Schema.column "k" S.Schema.Int;
          S.Schema.column "v" S.Schema.Int;
          S.Schema.column ~width:84 ("pad_" ^ name) S.Schema.Fixed_string;
        ]
    in
    let n = pages * 40 in
    S.Relation.of_tuples ~disk ~name ~schema
      (List.init n (fun i ->
           S.Tuple.encode schema
             [
               S.Tuple.VInt (U.Xorshift.int rng n);
               S.Tuple.VInt i;
               S.Tuple.VStr "";
             ]))
  in
  let r = mk "r" 24 and s = mk "s" 60 in
  let catalog = P.Catalog.create () in
  List.iter (P.Catalog.register catalog) [ r; s ];
  (catalog, r, s)

let cfg = { P.Optimizer.mem_pages = 16; fudge = 1.2; allow_hash = true }

(* ------------------------------------------------------------------ *)
(* Conformance                                                         *)
(* ------------------------------------------------------------------ *)

let test_suite_clean () =
  let cases = MC.run_suite ~seed:42 () in
  checkb "stock operators conform at declared tolerances"
    true (MC.suite_ok cases);
  checkb "no warnings either" true (MC.suite_diags cases = [])

(* More corpora against a lucky one: seed 7 at the declared tolerances,
   and seed 99 with every band widened by a quarter. *)
let test_suite_more_seeds () =
  checkb "seed 7 suite clean" false
    (D.has_errors (MC.suite_diags (MC.run_suite ~seed:7 ())));
  checkb "seed 99 at 1.25x tolerance clean" false
    (D.has_errors
       (MC.suite_diags
          (MC.run_suite ~seed:99 ~tolerance_scale:1.25 ())))

let test_suite_deterministic () =
  let diags_of seed = MC.suite_diags (MC.run_suite ~seed ()) in
  checkb "same seed, same findings" true (diags_of 5 = diags_of 5)

let test_all_four_joins_conform () =
  let _catalog, r, s = corpus () in
  List.iter
    (fun algo ->
      let diags = MC.check_join algo ~mem_pages:16 ~fudge:1.2 r s in
      checkb (E.Joiner.name algo ^ " conforms") true (not (D.has_errors diags)))
    E.Joiner.all

let test_tight_band_flags () =
  (* Shrinking every band far below the declared width must expose the
     (bounded) constant-factor gap between model and implementation —
     proof the bands are load-bearing, not decorative. *)
  let _catalog, r, s = corpus () in
  let diags =
    MC.check_join ~tolerance_scale:0.01 E.Joiner.Sort_merge_join
      ~mem_pages:16 ~fudge:1.2 r s
  in
  checkb "near-zero tolerance flags sort-merge" true (D.has_errors diags)

let test_miscosted_operator_flagged () =
  (* Sorting the presorted column is a deliberate model violation: the
     expected-runs formula assumes random input (runs of ~2|M| pages),
     but replacement selection on sorted input emits one long run, so the
     multi-run merge I/O the model predicts never happens.  The analyzer
     must catch the divergence with a stable MODEL code. *)
  let catalog, _r, _s = corpus () in
  let reports =
    MC.check_plan catalog cfg (A.order_by ~column:"v" (A.scan "s"))
  in
  let diags = MC.report_diags reports in
  checkb "presorted sort diverges from the model" true (D.has_errors diags);
  checkb "flagged as random-I/O divergence (MODEL006)" true
    (D.has_code "MODEL006" diags)

let test_model011_on_invalid_workload () =
  (* Memory below sqrt(|S|*F): outside the formulas' validity, reported
     as a skip-warning rather than force-fitted. *)
  let _catalog, r, s = corpus () in
  let diags = MC.check_join E.Joiner.Hybrid_hash_join ~mem_pages:2 ~fudge:1.2 r s in
  checkb "no errors" true (not (D.has_errors diags));
  checkb "MODEL011 warning" true (D.has_code "MODEL011" diags)

let test_ops_of_counters () =
  let c = S.Counters.create () in
  c.S.Counters.comparisons <- 3;
  c.S.Counters.hashes <- 5;
  c.S.Counters.moves <- 7;
  c.S.Counters.swaps <- 11;
  c.S.Counters.seq_reads <- 13;
  c.S.Counters.seq_writes <- 17;
  c.S.Counters.rand_reads <- 19;
  c.S.Counters.rand_writes <- 23;
  let o = MC.ops_of_counters c in
  checkb "comps" true (o.JM.comps = 3.0);
  checkb "seq reads+writes merge" true (o.JM.seq_ios = 30.0);
  checkb "rand reads+writes merge" true (o.JM.rand_ios = 42.0)

let test_scan_silent_filter_charged () =
  (* A scan predicts and observes exactly zero; a filter exactly one
     comparison per tuple it tests. *)
  let catalog, r, _s = corpus () in
  let reports =
    MC.check_plan catalog cfg
      (A.select ~column:"v" ~op:A.Lt ~value:(S.Tuple.VInt 100) (A.scan "r"))
  in
  checki "two nodes traced" 2 (List.length reports);
  let tested = { JM.zero_ops with JM.comps = float_of_int (S.Relation.ntuples r) } in
  List.iter
    (fun (r : MC.node_report) ->
      checkb (r.MC.kind ^ " clean") true (r.MC.diags = []);
      let expected = if r.MC.kind = "filter" then tested else JM.zero_ops in
      checkb (r.MC.kind ^ " observed") true (r.MC.observed = expected);
      checkb (r.MC.kind ^ " predicted") true (r.MC.predicted = expected))
    reports

(* A table of [n] unique keys 0..n-1, registered alone in a catalog. *)
let keyed_table n =
  let env = S.Env.create () in
  let disk = S.Disk.create ~env ~page_size:4096 in
  let schema =
    S.Schema.create ~key:"k"
      [ S.Schema.column "k" S.Schema.Int; S.Schema.column "v" S.Schema.Int ]
  in
  let rel =
    S.Relation.of_tuples ~disk ~name:"u" ~schema
      (List.init n (fun i -> S.Tuple.encode schema [ S.Tuple.VInt i; S.Tuple.VInt (n - i) ]))
  in
  let catalog = P.Catalog.create () in
  P.Catalog.register catalog rel;
  catalog

let point k = A.select ~column:"k" ~op:A.Eq ~value:(S.Tuple.VInt k) (A.scan "u")

let test_index_lookup_conforms () =
  List.iter
    (fun (kind, n) ->
      let catalog = keyed_table n in
      P.Catalog.create_index catalog "u" kind;
      List.iter
        (fun k ->
          let label = Printf.sprintf "%s n=%d k=%d" (P.Catalog.kind_name kind) n k in
          match MC.check_plan catalog cfg (point k) with
          | [ (r : MC.node_report) ] ->
            checkb (label ^ ": one index node") true (r.MC.kind = "index:u");
            checkb (label ^ ": within the band") true (r.MC.diags = []);
            checkb (label ^ ": the probe compares") true
              (n < 2 || r.MC.observed.JM.comps > 0.0)
          | _ -> Alcotest.fail (label ^ ": expected a lone index-lookup node"))
        [ 0; n / 2; n - 1; n; -5 ])
    (List.concat_map
       (fun n -> [ (P.Catalog.Btree_index, n); (P.Catalog.Avl_index, n) ])
       [ 1; 2; 10; 1000; 20_000 ])

let test_index_misprediction_flagged () =
  (* A plan that names an index the table does not have: the probe falls
     back to a scan charging a comparison per tuple, thousands of times
     the ⌈log2 n⌉ the node predicts. *)
  let catalog = keyed_table 2000 in
  let plan =
    P.Optimizer.P_index_lookup
      { table = "u"; column = "k"; value = S.Tuple.VInt 1500; kind = P.Catalog.Btree_index }
  in
  let diags = MC.report_diags (MC.check_planned catalog cfg plan) in
  checkb "comparisons diverge (MODEL001)" true (D.has_code "MODEL001" diags)

(* ------------------------------------------------------------------ *)
(* Optimality lint                                                     *)
(* ------------------------------------------------------------------ *)

let join_expr = A.join ~left_key:"k" ~right_key:"k" (A.scan "r") (A.scan "s")

let test_lint_clean_on_stock_optimizer () =
  let catalog, _r, _s = corpus () in
  checkb "chosen plan at the enumerated minimum" true
    (MC.lint_optimality catalog cfg join_expr = [])

let test_lint_flags_crippled_optimizer () =
  (* allow_hash = false forces sort-merge, which the enumeration prices
     above hybrid on this workload: a deliberately suboptimal choice the
     lint must flag. *)
  let catalog, _r, _s = corpus () in
  let diags =
    MC.lint_optimality catalog
      { cfg with P.Optimizer.allow_hash = false }
      join_expr
  in
  checkb "MODEL008 on forced sort-merge" true (D.has_code "MODEL008" diags);
  checkb "names the cheapest algorithm" true
    (List.exists
       (fun (d : D.t) -> String.ends_with ~suffix:"(simple)" d.D.message)
       diags)

let test_lint_no_joins_no_findings () =
  let catalog, _r, _s = corpus () in
  checkb "scan-only plan has nothing to lint" true
    (MC.lint_optimality catalog cfg (A.scan "r") = [])

(* ------------------------------------------------------------------ *)
(* Selectivity                                                         *)
(* ------------------------------------------------------------------ *)

let test_selectivity_clean () =
  let catalog, _r, _s = corpus () in
  let expr =
    A.select ~column:"k" ~op:A.Lt ~value:(S.Tuple.VInt 1200) (A.scan "s")
  in
  let actual =
    S.Relation.ntuples (P.Executor.query catalog cfg expr)
  in
  checkb "estimate within the declared band" true
    (MC.check_selectivity catalog expr ~actual = [])

let test_selectivity_divergence_flagged () =
  let catalog, _r, _s = corpus () in
  let expr =
    A.select ~column:"k" ~op:A.Eq ~value:(S.Tuple.VInt 3) (A.scan "s")
  in
  let diags = MC.check_selectivity catalog expr ~actual:1_000_000 in
  checkb "MODEL009 on gross divergence" true (D.has_code "MODEL009" diags)

(* ------------------------------------------------------------------ *)
(* Plumbing                                                            *)
(* ------------------------------------------------------------------ *)

let test_audit_component () =
  let diags = MC.suite_diags (MC.run_suite ~seed:11 ()) in
  checkb "the audit report passes the model suite" true
    (V.Audit.report (Format.formatter_of_buffer (Buffer.create 256))
       [ ("model", diags) ])

let test_code_catalogue () =
  List.iter
    (fun code ->
      checkb (code ^ " catalogued") true
        (List.mem_assoc code V.code_catalogue))
    [ "MODEL001"; "MODEL002"; "MODEL003"; "MODEL004"; "MODEL005"; "MODEL006";
      "MODEL007"; "MODEL008"; "MODEL009"; "MODEL010"; "MODEL011" ]

let test_tolerance_scale () =
  let t = MC.tolerance_for "join:hybrid" in
  let w = MC.scale_tolerance 2.0 t in
  checkb "hi widens" true (w.MC.comps.MC.hi > t.MC.comps.MC.hi);
  checkb "lo widens" true (w.MC.comps.MC.lo < t.MC.comps.MC.lo)

(* A zero or negative scale empties every band, so each case would
   report divergence; the suite refuses it instead. *)
let test_tolerance_scale_positive () =
  List.iter
    (fun f ->
      Alcotest.check_raises (Printf.sprintf "scale %g" f)
        (Invalid_argument "Model_check.run_suite: tolerance_scale <= 0")
        (fun () -> ignore (MC.run_suite ~tolerance_scale:f ())))
    [ 0.0; -1.0; Float.nan ]

let () =
  Alcotest.run "modelcheck"
    [
      ( "conformance",
        [
          Alcotest.test_case "seeded suite clean" `Quick test_suite_clean;
          Alcotest.test_case "seeds 7/99 clean" `Quick
            test_suite_more_seeds;
          Alcotest.test_case "deterministic" `Quick test_suite_deterministic;
          Alcotest.test_case "all four joins conform" `Quick
            test_all_four_joins_conform;
          Alcotest.test_case "tight bands flag (load-bearing)" `Quick
            test_tight_band_flags;
          Alcotest.test_case "mis-modeled sort flagged (MODEL006)" `Quick
            test_miscosted_operator_flagged;
          Alcotest.test_case "invalid workload skipped (MODEL011)" `Quick
            test_model011_on_invalid_workload;
          Alcotest.test_case "counter projection" `Quick test_ops_of_counters;
          Alcotest.test_case "scan silent, filter one comp per tuple" `Quick
            test_scan_silent_filter_charged;
          Alcotest.test_case "index lookups conform" `Quick
            test_index_lookup_conforms;
          Alcotest.test_case "index misprediction flagged (MODEL001)" `Quick
            test_index_misprediction_flagged;
        ] );
      ( "optimality",
        [
          Alcotest.test_case "stock optimizer certified" `Quick
            test_lint_clean_on_stock_optimizer;
          Alcotest.test_case "crippled optimizer flagged (MODEL008)" `Quick
            test_lint_flags_crippled_optimizer;
          Alcotest.test_case "no joins, no findings" `Quick
            test_lint_no_joins_no_findings;
        ] );
      ( "selectivity",
        [
          Alcotest.test_case "estimates within band" `Quick
            test_selectivity_clean;
          Alcotest.test_case "divergence flagged (MODEL009)" `Quick
            test_selectivity_divergence_flagged;
        ] );
      ( "plumbing",
        [
          Alcotest.test_case "audit component" `Quick test_audit_component;
          Alcotest.test_case "code catalogue" `Quick test_code_catalogue;
          Alcotest.test_case "tolerance scaling" `Quick test_tolerance_scale;
          Alcotest.test_case "non-positive tolerance scale rejected" `Quick
            test_tolerance_scale_positive;
        ] );
    ]
