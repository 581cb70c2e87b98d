(* Tests for Mmdb_model: the Section 2 access-method model (Table 1), the
   Section 3 join cost model (Figure 1 / Tables 2-3), and the Section 5
   recovery throughput model. *)

module AM = Mmdb_model.Access_model
module JM = Mmdb_model.Join_model
module RM = Mmdb_model.Recovery_model
module C = Mmdb_storage.Cost

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let feq ?(eps = 1e-9) name a b =
  checkb
    (Printf.sprintf "%s: %.6g ~= %.6g" name a b)
    true
    (Float.abs (a -. b) <= eps)

(* ------------------------------------------------------------------ *)
(* Access model (Section 2)                                            *)
(* ------------------------------------------------------------------ *)

let test_structure_sizes () =
  let p = AM.default in
  (* S = 1e6 * (40 + 8) / 4096 = 11719 pages. *)
  checki "S (AVL pages)" 11719 (AM.avl_pages p);
  (* Fanout = 0.69 * 4096 / 12 = 235.5. *)
  feq ~eps:0.1 "fanout" 235.52 (AM.btree_fanout p);
  (* D = 1e6 / (0.69*4096/40) = 14154 leaves. *)
  checki "D (leaves)" 14154 (AM.btree_leaf_pages p);
  (* height = ceil(log_235.5 14156) = 2. *)
  checki "height" 2 (AM.btree_height p);
  checkb "S' slightly above D" true (AM.btree_pages p > AM.btree_leaf_pages p);
  checkb "S' below 1.02 D" true
    (float_of_int (AM.btree_pages p)
    < 1.02 *. float_of_int (AM.btree_leaf_pages p))

let test_comparisons () =
  let p = AM.default in
  feq ~eps:0.01 "C = log2 1e6 + 0.25" 20.18 (AM.avl_comparisons p);
  feq "C' = ceil(log2 1e6)" 20.0 (AM.btree_comparisons p)

let test_costs_at_extremes () =
  let p = AM.default in
  (* No memory: AVL pays Z per comparison level, B+ pays Z*(height+1). *)
  let avl0 = AM.avl_random_cost p ~m:0 in
  let bt0 = AM.btree_random_cost p ~m:0 in
  checkb "btree much cheaper with no memory" true (bt0 < avl0 /. 4.0);
  (* Full residency: AVL does no I/O and wins (Y <= 1). *)
  let m_full = AM.avl_pages p in
  let avl1 = AM.avl_random_cost p ~m:m_full in
  let bt1 = AM.btree_random_cost p ~m:m_full in
  checkb "avl wins fully resident" true (avl1 <= bt1);
  feq ~eps:0.01 "avl fully resident = Y*C" (AM.avl_comparisons p) avl1

let test_crossover_in_paper_band () =
  (* Paper: "unless more than 80%-90% of the database fits in main
     memory" B+-trees are preferred.  Check every Z, Y cell. *)
  List.iter
    (fun z ->
      List.iter
        (fun y ->
          let p = { AM.default with AM.z; AM.y } in
          let h = AM.crossover_h p in
          checkb
            (Printf.sprintf "Z=%.0f Y=%.2f crossover %.3f in [0.8, 1.0]" z y h)
            true
            (h >= 0.8 && h <= 1.0))
        [ 0.5; 0.75; 1.0 ])
    [ 10.0; 20.0; 30.0 ]

let test_crossover_monotone_in_z () =
  (* Larger Z (pricier I/O) makes the I/O-free AVL endgame more valuable,
     but also makes the B+-tree's smaller structure matter more; with
     Y < 1 the paper's (1-Y)/Z term shrinks as Z grows, pushing the
     crossover up. *)
  let h z = AM.crossover_h { AM.default with AM.z; AM.y = 0.5 } in
  checkb "H(10) <= H(20)" true (h 10.0 <= h 20.0 +. 1e-9);
  checkb "H(20) <= H(30)" true (h 20.0 <= h 30.0 +. 1e-9)

let test_crossover_y1_insensitive_to_z () =
  (* With Y = 1 the (1-Y)/Z advantage vanishes; crossover depends only on
     the geometry. *)
  let h z = AM.crossover_h { AM.default with AM.z; AM.y = 1.0 } in
  feq ~eps:0.005 "H same for Z=10,30" (h 10.0) (h 30.0)

let test_crossover_consistency () =
  let p = AM.default in
  let h = AM.crossover_h p in
  let s = float_of_int (AM.avl_pages p) in
  let just_below = int_of_float ((h -. 0.02) *. s) in
  let just_above = int_of_float ((h +. 0.02) *. s) in
  checkb "below crossover: btree preferred" false
    (AM.avl_preferred p ~m:just_below);
  checkb "above crossover: avl preferred" true
    (AM.avl_preferred p ~m:just_above)

let test_sequential_crossover_band () =
  List.iter
    (fun z ->
      let p = { AM.default with AM.z } in
      let h = AM.crossover_h_seq p ~n:1000 in
      checkb
        (Printf.sprintf "Z=%.0f seq crossover %.3f in [0.85, 1.0]" z h)
        true
        (h >= 0.85 && h <= 1.0))
    [ 10.0; 20.0; 30.0 ]

let test_seq_costs_scale_with_n () =
  let p = AM.default in
  let c1 = AM.avl_seq_cost p ~m:0 ~n:100 in
  let c2 = AM.avl_seq_cost p ~m:0 ~n:200 in
  feq ~eps:1e-6 "avl seq linear in n" (2.0 *. c1) c2;
  (* B+-tree reads far fewer pages per record. *)
  checkb "btree seq beats avl seq with no memory" true
    (AM.btree_seq_cost p ~m:0 ~n:1000 < AM.avl_seq_cost p ~m:0 ~n:1000)

(* ------------------------------------------------------------------ *)
(* Join model (Section 3, Figure 1)                                    *)
(* ------------------------------------------------------------------ *)

let w = JM.table2_workload
let split ~m = JM.hybrid_split ~fudge:w.JM.cost.C.fudge ~pages:w.JM.r_pages ~m

let m_of_ratio ratio =
  max (JM.min_memory w)
    (int_of_float (ratio *. float_of_int w.JM.r_pages *. w.JM.cost.C.fudge))

let test_workload_counts () =
  checki "||R||" 400_000 (JM.r_tuples w);
  checki "||S||" 400_000 (JM.s_tuples w);
  checki "min memory = ceil sqrt(|S|F)" 110 (JM.min_memory w)

let test_validate () =
  Alcotest.check_raises "too little memory"
    (Invalid_argument "Join_model: |M| = 50 below sqrt(|S|*F) = 110")
    (fun () -> JM.validate w ~m:50);
  let bad = { w with JM.r_pages = 20_000 } in
  Alcotest.check_raises "R bigger than S"
    (Invalid_argument "Join_model: requires |R| <= |S|") (fun () ->
      JM.validate bad ~m:5000)

let test_grace_flat () =
  (* GRACE partitions regardless of memory: cost is memory-independent. *)
  feq "grace flat"
    (JM.grace_hash w ~m:(m_of_ratio 0.05))
    (JM.grace_hash w ~m:(m_of_ratio 0.9))

let test_hybrid_never_worse_than_grace () =
  List.iter
    (fun ratio ->
      let m = m_of_ratio ratio in
      checkb
        (Printf.sprintf "hybrid <= grace at ratio %.2f" ratio)
        true
        (JM.hybrid_hash w ~m <= JM.grace_hash w ~m +. 1e-9))
    [ 0.01; 0.05; 0.1; 0.25; 0.5; 0.75; 0.9; 1.0 ]

let test_hybrid_decreasing_in_memory () =
  let prev = ref infinity in
  List.iter
    (fun ratio ->
      let c = JM.hybrid_hash w ~m:(m_of_ratio ratio) in
      checkb (Printf.sprintf "hybrid monotone at %.2f" ratio) true
        (c <= !prev +. 1e-9);
      prev := c)
    [ 0.01; 0.1; 0.2; 0.3; 0.4; 0.5; 0.6; 0.8; 1.0 ]

let test_simple_hash_explodes_small_memory () =
  let small = JM.simple_hash w ~m:(m_of_ratio 0.01) in
  let large = JM.simple_hash w ~m:(m_of_ratio 0.9) in
  checkb "simple >30x worse with 1% memory" true (small > 30.0 *. large);
  checki "pass count at 1%" 100 (JM.simple_hash_passes w ~m:(m_of_ratio 0.01));
  checki "one pass when fits" 1 (JM.simple_hash_passes w ~m:(m_of_ratio 1.0))

let test_hybrid_equals_simple_when_fits () =
  let m = m_of_ratio 1.0 in
  feq ~eps:1e-6 "hybrid = simple with full memory" (JM.simple_hash w ~m)
    (JM.hybrid_hash w ~m);
  let b, q = split ~m in
  checki "B = 0" 0 b;
  feq "q = 1" 1.0 q

let test_hybrid_discontinuity_at_half () =
  (* Crossing |M| = |R|F/2 changes B from 2 to 1 and the write mode from
     random to sequential: an abrupt drop. *)
  let before = JM.hybrid_hash w ~m:(m_of_ratio 0.49) in
  let after = JM.hybrid_hash w ~m:(m_of_ratio 0.55) in
  checki "B=2 just below" 2 (fst (split ~m:(m_of_ratio 0.49)));
  checki "B=1 just above" 1 (fst (split ~m:(m_of_ratio 0.55)));
  checkb
    (Printf.sprintf "drop %.0f -> %.0f is > 30%%" before after)
    true
    (after < 0.7 *. before)

let test_simple_beats_hybrid_in_small_region () =
  (* The paper: "our graphs indicate that simple hash will outperform
     hybrid hash in a small region" (just below the 0.5 discontinuity). *)
  let m = m_of_ratio 0.45 in
  checkb "simple < hybrid at ratio 0.45" true
    (JM.simple_hash w ~m < JM.hybrid_hash w ~m);
  (* ... and nowhere below ratio 0.2. *)
  List.iter
    (fun ratio ->
      let m = m_of_ratio ratio in
      checkb
        (Printf.sprintf "hybrid < simple at ratio %.2f" ratio)
        true
        (JM.hybrid_hash w ~m < JM.simple_hash w ~m))
    [ 0.01; 0.05; 0.1; 0.2 ]

let test_sort_merge_improves_above_ratio_one () =
  let at_one = JM.sort_merge w ~m:(m_of_ratio 1.0 - 200) in
  let above = JM.sort_merge w ~m:(m_of_ratio 1.3) in
  checkb "drops above 1.0" true (above < at_one);
  (* The paper says "approximately 900 seconds". *)
  checkb (Printf.sprintf "in-memory sort-merge %.0fs in [800, 1100]" above)
    true
    (above >= 800.0 && above <= 1100.0)

let test_figure1_ordering_mid_range () =
  (* At moderate memory, the paper's Figure 1 ordering:
     hybrid < grace < sort-merge, with simple above hybrid. *)
  let m = m_of_ratio 0.1 in
  let hybrid = JM.hybrid_hash w ~m in
  let grace = JM.grace_hash w ~m in
  let sm = JM.sort_merge w ~m in
  let simple = JM.simple_hash w ~m in
  checkb "hybrid < grace" true (hybrid < grace);
  checkb "grace < sort-merge" true (grace < sm);
  checkb "hybrid < simple" true (hybrid < simple)

let test_all_four_labels () =
  let costs = JM.all_four w ~m:(m_of_ratio 0.5) in
  Alcotest.(check (list string))
    "labels"
    [ "sort-merge"; "simple"; "grace"; "hybrid" ]
    (List.map fst costs);
  List.iter (fun (_, c) -> checkb "positive" true (c > 0.0)) costs

(* Table 3 sensitivity: the qualitative conclusions hold across the
   parameter ranges of Table 3. *)
let table3_corners () =
  let corners = ref [] in
  List.iter
    (fun comp ->
      List.iter
        (fun hash ->
          List.iter
            (fun io_seq ->
              List.iter
                (fun fudge ->
                  List.iter
                    (fun s_pages ->
                      corners :=
                        {
                          JM.r_pages = min 10_000 s_pages;
                          JM.s_pages = s_pages;
                          JM.r_tuples_per_page = 40;
                          JM.s_tuples_per_page = 40;
                          JM.cost =
                            {
                              C.table2 with
                              C.comp;
                              C.hash;
                              C.io_seq;
                              C.io_rand = io_seq *. 2.5;
                              C.fudge;
                            };
                        }
                        :: !corners)
                    [ 10_000; 50_000 ])
                [ 1.0; 1.4 ])
            [ 5e-3; 10e-3 ])
        [ 2e-6; 50e-6 ])
    [ 1e-6; 10e-6 ];
  !corners

let test_table3_sensitivity () =
  List.iter
    (fun wl ->
      List.iter
        (fun ratio ->
          let m =
            max (JM.min_memory wl)
              (int_of_float
                 (ratio *. float_of_int wl.JM.r_pages *. wl.JM.cost.C.fudge))
          in
          let hybrid = JM.hybrid_hash wl ~m in
          let grace = JM.grace_hash wl ~m in
          checkb "hybrid <= grace (all corners)" true (hybrid <= grace +. 1e-9))
        [ 0.05; 0.3; 0.7; 1.0 ])
    (table3_corners ())

(* ------------------------------------------------------------------ *)
(* Recovery model (Section 5)                                          *)
(* ------------------------------------------------------------------ *)

let test_paper_throughput_numbers () =
  let r = RM.gray_banking in
  feq "conventional 100 tps" 100.0 (RM.conventional_tps r);
  checki "10 txns per page" 10 (RM.txns_per_page r ~compressed:false);
  feq "group commit 1000 tps" 1000.0 (RM.group_commit_tps r);
  feq "4 devices -> 4000 tps" 4000.0 (RM.partitioned_tps r ~devices:4)

let test_log_bytes () =
  let r = RM.gray_banking in
  checki "400 bytes/txn" 400 (RM.log_bytes_per_txn r ~compressed:false);
  checki "220 bytes compressed" 220 (RM.log_bytes_per_txn r ~compressed:true);
  feq "ratio 0.55" 0.55 (RM.log_compression_ratio r)

let test_stable_memory_gains () =
  let r = RM.gray_banking in
  let plain = RM.stable_memory_tps r ~devices:1 ~compressed:false in
  let compressed = RM.stable_memory_tps r ~devices:1 ~compressed:true in
  feq "uncompressed stable = group commit" (RM.group_commit_tps r) plain;
  checkb "compression increases throughput" true (compressed > plain);
  feq "1800 tps compressed" 1800.0 compressed

let test_device_validation () =
  let r = RM.gray_banking in
  Alcotest.check_raises "zero devices"
    (Invalid_argument "Recovery_model.partitioned_tps: devices") (fun () ->
      ignore (RM.partitioned_tps r ~devices:0))

let () =
  Alcotest.run "mmdb_model"
    [
      ( "access_model",
        [
          Alcotest.test_case "structure sizes" `Quick test_structure_sizes;
          Alcotest.test_case "comparisons" `Quick test_comparisons;
          Alcotest.test_case "cost extremes" `Quick test_costs_at_extremes;
          Alcotest.test_case "crossover in 80-100% band" `Quick
            test_crossover_in_paper_band;
          Alcotest.test_case "crossover monotone in Z" `Quick
            test_crossover_monotone_in_z;
          Alcotest.test_case "Y=1 insensitive to Z" `Quick
            test_crossover_y1_insensitive_to_z;
          Alcotest.test_case "crossover consistent" `Quick
            test_crossover_consistency;
          Alcotest.test_case "sequential crossover band" `Quick
            test_sequential_crossover_band;
          Alcotest.test_case "sequential scaling" `Quick
            test_seq_costs_scale_with_n;
        ] );
      ( "join_model",
        [
          Alcotest.test_case "workload counts" `Quick test_workload_counts;
          Alcotest.test_case "validation" `Quick test_validate;
          Alcotest.test_case "grace flat" `Quick test_grace_flat;
          Alcotest.test_case "hybrid <= grace" `Quick
            test_hybrid_never_worse_than_grace;
          Alcotest.test_case "hybrid monotone" `Quick
            test_hybrid_decreasing_in_memory;
          Alcotest.test_case "simple explodes small memory" `Quick
            test_simple_hash_explodes_small_memory;
          Alcotest.test_case "hybrid = simple when fits" `Quick
            test_hybrid_equals_simple_when_fits;
          Alcotest.test_case "discontinuity at 0.5" `Quick
            test_hybrid_discontinuity_at_half;
          Alcotest.test_case "simple beats hybrid in small region" `Quick
            test_simple_beats_hybrid_in_small_region;
          Alcotest.test_case "sort-merge improves above 1.0" `Quick
            test_sort_merge_improves_above_ratio_one;
          Alcotest.test_case "figure 1 mid-range ordering" `Quick
            test_figure1_ordering_mid_range;
          Alcotest.test_case "all_four labels" `Quick test_all_four_labels;
          Alcotest.test_case "table 3 sensitivity" `Quick
            test_table3_sensitivity;
        ] );
      ( "recovery_model",
        [
          Alcotest.test_case "paper throughput numbers" `Quick
            test_paper_throughput_numbers;
          Alcotest.test_case "log bytes" `Quick test_log_bytes;
          Alcotest.test_case "stable memory gains" `Quick
            test_stable_memory_gains;
          Alcotest.test_case "device validation" `Quick test_device_validation;
        ] );
    ]
