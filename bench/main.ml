(* Benchmark harness: regenerates every table and figure of DeWitt et al.
   1984 (see DESIGN.md's experiment index E1..E9 plus ablations), printing
   paper-formatted rows.  `dune exec bench/main.exe` runs everything;
   `-e <id>` selects one experiment; `--list` enumerates; `--bechamel`
   additionally runs wall-clock microbenchmarks of the hot operators. *)

module U = Mmdb_util
module S = Mmdb_storage
module I = Mmdb_index
module E = Mmdb_exec
module AM = Mmdb_model.Access_model
module JM = Mmdb_model.Join_model
module RM = Mmdb_model.Recovery_model
module R = Mmdb_recovery
module P = Mmdb_planner
module A = P.Algebra

let section title =
  Printf.printf "\n=== %s ===\n\n" title

let zs = [ 10.0; 20.0; 30.0 ]
let ys = [ 0.5; 0.75; 1.0 ]

(* ------------------------------------------------------------------ *)
(* E1 / E1b: Table 1 — AVL vs B+-tree crossover                        *)
(* ------------------------------------------------------------------ *)

let table1 () =
  section
    "E1 Table 1: fraction H of the AVL structure that must be memory-resident \
     for the AVL tree to beat the B+-tree (random single-tuple access)";
  Printf.printf "parameters: %s\n\n" (Format.asprintf "%a" AM.pp AM.default);
  let t =
    U.Tablefmt.create
      ("Z \\ Y" :: List.map (fun y -> Printf.sprintf "Y=%.2f" y) ys)
  in
  List.iter
    (fun z ->
      U.Tablefmt.add_row t
        (Printf.sprintf "Z=%.0f" z
        :: List.map
             (fun y ->
               U.Tablefmt.cell_float ~decimals:3
                 (AM.crossover_h { AM.default with AM.z; AM.y }))
             ys))
    zs;
  U.Tablefmt.print t;
  Printf.printf
    "\npaper: \"a very high percentage of the tree must be in main memory for \
     an AVL-Tree to be competitive\" (80-90%%+): all cells are >= 0.80.\n"

let table1_seq () =
  section
    "E1b Table 1 (sequential-access analogue): crossover H' for reading N \
     records sequentially (inequality (2); the paper notes Table 1 applies)";
  List.iter
    (fun n ->
      Printf.printf "N = %d records:\n" n;
      let t =
        U.Tablefmt.create
          ("Z \\ Y" :: List.map (fun y -> Printf.sprintf "Y=%.2f" y) ys)
      in
      List.iter
        (fun z ->
          U.Tablefmt.add_row t
            (Printf.sprintf "Z=%.0f" z
            :: List.map
                 (fun y ->
                   U.Tablefmt.cell_float ~decimals:3
                     (AM.crossover_h_seq { AM.default with AM.z; AM.y } ~n))
                 ys))
        zs;
      U.Tablefmt.print t;
      print_newline ())
    [ 100; 1000; 10000 ]

(* ------------------------------------------------------------------ *)
(* E1c: empirical cross-check of the Section 2 fault model             *)
(* ------------------------------------------------------------------ *)

let access_schema () =
  S.Schema.create ~key:"k"
    [
      S.Schema.column "k" S.Schema.Int;
      S.Schema.column ~width:32 "pad" S.Schema.Fixed_string;
    ]

let access_empirical () =
  section
    "E1c: measured faults/comparisons of the real AVL and B+-tree under a \
     buffer pool with random replacement, against the Section 2 model";
  let n = 30_000 in
  let schema = access_schema () in
  let probes = 3000 in
  let hs = [ 0.25; 0.50; 0.75; 0.95 ] in
  let t =
    U.Tablefmt.create
      [
        "structure"; "H"; "faults/lkp"; "model"; "comps/lkp"; "model";
      ]
  in
  (* AVL: nodes of t + 2s bytes, several per page. *)
  let env = S.Env.create () in
  let avl = I.Avl.create ~env ~schema () in
  let rng = U.Xorshift.create 11 in
  let keys = Array.init n (fun i -> i) in
  U.Xorshift.shuffle rng keys;
  Array.iter
    (fun k ->
      I.Avl.insert avl (S.Tuple.encode schema [ S.Tuple.VInt k; S.Tuple.VStr "" ]))
    keys;
  let nodes_per_page = 4096 / (S.Schema.tuple_width schema + 8) in
  let avl_pages =
    (I.Avl.node_count avl + nodes_per_page - 1) / nodes_per_page
  in
  let c_model = Float.log2 (float_of_int n) +. 0.25 in
  List.iter
    (fun h ->
      let disk = S.Disk.create ~env ~page_size:4096 in
      let cap = max 1 (int_of_float (h *. float_of_int avl_pages)) in
      let pager =
        I.Pager.create ~disk ~pool_capacity:cap
          ~policy:(S.Buffer_pool.Random_replacement (U.Xorshift.create 3))
          ~nodes_per_page
      in
      I.Pager.attach_avl pager avl;
      (* Warm up, then measure. *)
      for _ = 1 to 1000 do
        ignore (I.Avl.search avl (S.Tuple.encode_int_key schema (U.Xorshift.int rng n)))
      done;
      let before = S.Counters.snapshot env.S.Env.counters in
      for _ = 1 to probes do
        ignore (I.Avl.search avl (S.Tuple.encode_int_key schema (U.Xorshift.int rng n)))
      done;
      let d = S.Counters.diff ~after:env.S.Env.counters ~before in
      I.Avl.set_visit_hook avl None;
      let per x = float_of_int x /. float_of_int probes in
      U.Tablefmt.add_row t
        [
          "AVL";
          U.Tablefmt.cell_float h;
          U.Tablefmt.cell_float (per d.S.Counters.faults);
          U.Tablefmt.cell_float (c_model *. (1.0 -. h));
          U.Tablefmt.cell_float (per d.S.Counters.comparisons);
          U.Tablefmt.cell_float c_model;
        ])
    hs;
  U.Tablefmt.add_rule t;
  (* B+-tree: one node per page. *)
  let env = S.Env.create () in
  let bt = I.Btree.create ~env ~schema ~page_size:4096 () in
  Array.iter
    (fun k ->
      I.Btree.insert bt (S.Tuple.encode schema [ S.Tuple.VInt k; S.Tuple.VStr "" ]))
    keys;
  let bt_pages = I.Btree.node_count bt in
  let height = I.Btree.height bt in
  let c'_model = Float.ceil (Float.log2 (float_of_int n)) in
  List.iter
    (fun h ->
      let disk = S.Disk.create ~env ~page_size:4096 in
      let cap = max 1 (int_of_float (h *. float_of_int bt_pages)) in
      let pager =
        I.Pager.create ~disk ~pool_capacity:cap
          ~policy:(S.Buffer_pool.Random_replacement (U.Xorshift.create 5))
          ~nodes_per_page:1
      in
      I.Pager.attach_btree pager bt;
      for _ = 1 to 1000 do
        ignore (I.Btree.search bt (S.Tuple.encode_int_key schema (U.Xorshift.int rng n)))
      done;
      let before = S.Counters.snapshot env.S.Env.counters in
      for _ = 1 to probes do
        ignore (I.Btree.search bt (S.Tuple.encode_int_key schema (U.Xorshift.int rng n)))
      done;
      let d = S.Counters.diff ~after:env.S.Env.counters ~before in
      I.Btree.set_visit_hook bt None;
      let per x = float_of_int x /. float_of_int probes in
      U.Tablefmt.add_row t
        [
          "B+-tree";
          U.Tablefmt.cell_float h;
          U.Tablefmt.cell_float (per d.S.Counters.faults);
          U.Tablefmt.cell_float (float_of_int height *. (1.0 -. h));
          U.Tablefmt.cell_float (per d.S.Counters.comparisons);
          U.Tablefmt.cell_float c'_model;
        ])
    hs;
  U.Tablefmt.print t;
  Printf.printf
    "\nAVL structure: %d pages (%d nodes/page); B+-tree: %d node pages, \
     height %d.\n\
     The B+-tree touches `height` pages per lookup vs the AVL's ~log2(n): \
     at every memory fraction its fault count is several times lower — \
     Section 2's conclusion.  Measured faults sit below the model for both \
     structures because C*(1-H) assumes every touched page is uniformly \
     random, while the top tree levels are hot and effectively always \
     resident; the paper's model is a (tight-ordering) upper bound, and the \
     comparison between structures is unaffected.\n"
    avl_pages nodes_per_page bt_pages height

(* ------------------------------------------------------------------ *)
(* E2: Figure 1 (analytic)                                             *)
(* ------------------------------------------------------------------ *)

let figure1_ratios =
  [ 0.0316; 0.05; 0.1; 0.15; 0.2; 0.3; 0.4; 0.45; 0.499; 0.5; 0.55; 0.6;
    0.7; 0.8; 0.9; 0.99; 1.0 ]

let figure1 () =
  section
    "E2 Figure 1: execution time (s) of the four join algorithms vs \
     |M| / (|R| * F), Table 2 parameters (|R| = |S| = 10,000 pages)";
  let w = JM.table2_workload in
  let rf = float_of_int w.JM.r_pages *. w.JM.cost.S.Cost.fudge in
  let t =
    U.Tablefmt.create
      [ "|M|/(|R|F)"; "|M|"; "sort-merge"; "simple"; "grace"; "hybrid";
        "B"; "q"; "A" ]
  in
  List.iter
    (fun ratio ->
      let m = max (JM.min_memory w) (int_of_float (ratio *. rf)) in
      let cost name = List.assoc name (JM.all_four w ~m) in
      U.Tablefmt.add_row t
        [
          U.Tablefmt.cell_float ~decimals:4 ratio;
          U.Tablefmt.cell_int m;
          U.Tablefmt.cell_float ~decimals:1 (cost "sort-merge");
          U.Tablefmt.cell_float ~decimals:1 (cost "simple");
          U.Tablefmt.cell_float ~decimals:1 (cost "grace");
          U.Tablefmt.cell_float ~decimals:1 (cost "hybrid");
          U.Tablefmt.cell_int (JM.hybrid_partitions w ~m);
          U.Tablefmt.cell_float (JM.hybrid_q w ~m);
          U.Tablefmt.cell_int (JM.simple_hash_passes w ~m);
        ])
    figure1_ratios;
  U.Tablefmt.print t;
  let above = JM.sort_merge w ~m:(int_of_float (1.5 *. rf)) in
  Printf.printf
    "\nabove ratio 1.0 sort-merge improves to %.0f s (paper: \"approximately \
     900 seconds\"); note the hybrid discontinuity crossing 0.5 (B: 2 -> 1, \
     random -> sequential writes) and the small region below 0.5 where simple \
     hash wins — both discussed under Figure 1 in the paper.\n"
    above

(* ------------------------------------------------------------------ *)
(* E2b: Figure 1 empirical (executable joins on the simulator)         *)
(* ------------------------------------------------------------------ *)

let join_schema name =
  S.Schema.create ~key:"k"
    [
      S.Schema.column "k" S.Schema.Int;
      S.Schema.column "v" S.Schema.Int;
      S.Schema.column ~width:84 ("pad_" ^ name) S.Schema.Fixed_string;
    ]

let build_join_workload ~pages ~seed =
  let env = S.Env.create () in
  let disk = S.Disk.create ~env ~page_size:4096 in
  let rng = U.Xorshift.create seed in
  let tpp = 40 in
  let n = pages * tpp in
  let mk name =
    let schema = join_schema name in
    S.Relation.of_tuples ~disk ~name ~schema
      (List.init n (fun i ->
           S.Tuple.encode schema
             [
               S.Tuple.VInt (U.Xorshift.int rng n);
               S.Tuple.VInt i;
               S.Tuple.VStr "";
             ]))
  in
  (env, mk "R", mk "S")

let figure1_empirical () =
  section
    "E2b Figure 1 empirical: the executable joins on a 250-page workload \
     (10,000 100-byte tuples per relation), simulated seconds vs the model";
  let pages = 250 in
  let fudge = 1.2 in
  let rf = float_of_int pages *. fudge in
  let ratios = [ 0.08; 0.15; 0.3; 0.45; 0.55; 0.75; 1.0 ] in
  let w =
    {
      JM.r_pages = pages;
      JM.s_pages = pages;
      JM.r_tuples_per_page = 40;
      JM.s_tuples_per_page = 40;
      JM.cost = S.Cost.table2;
    }
  in
  let t =
    U.Tablefmt.create
      [ "ratio"; "|M|";
        "sm meas"; "sm model"; "simple meas"; "simple model";
        "grace meas"; "grace model"; "hybrid meas"; "hybrid model" ]
  in
  List.iter
    (fun ratio ->
      let m = max (JM.min_memory w) (int_of_float (ratio *. rf)) in
      let env, r, s = build_join_workload ~pages ~seed:7 in
      ignore env;
      let cells = ref [] in
      List.iter
        (fun algo ->
          let stats = E.Joiner.run_measured algo ~mem_pages:m ~fudge r s in
          let model =
            match algo with
            | E.Joiner.Sort_merge_join -> JM.sort_merge w ~m
            | E.Joiner.Simple_hash_join -> JM.simple_hash w ~m
            | E.Joiner.Grace_hash_join -> JM.grace_hash w ~m
            | E.Joiner.Hybrid_hash_join -> JM.hybrid_hash w ~m
            | E.Joiner.Nested_loop_join -> nan
          in
          cells :=
            U.Tablefmt.cell_float ~decimals:2 model
            :: U.Tablefmt.cell_float ~decimals:2 stats.E.Op_stats.seconds
            :: !cells)
        E.Joiner.all;
      U.Tablefmt.add_row t
        (U.Tablefmt.cell_float ratio :: U.Tablefmt.cell_int m
        :: List.rev !cells))
    ratios;
  U.Tablefmt.print t;
  Printf.printf
    "\nAbsolute seconds differ (the model charges idealised bulk terms; the \
     executable pays per-page realities), but the orderings and crossovers \
     match: hybrid <= grace everywhere, simple explodes at small |M| and \
     converges to hybrid at 1.0, sort-merge is the flattest and slowest \
     mid-range curve.\n"

(* ------------------------------------------------------------------ *)
(* E3: Table 2                                                         *)
(* ------------------------------------------------------------------ *)

let table2 () =
  section "E3 Table 2: parameter settings used";
  let c = S.Cost.table2 in
  let t = U.Tablefmt.create ~aligns:[ U.Tablefmt.Left; U.Tablefmt.Right ] [ "parameter"; "value" ] in
  U.Tablefmt.add_row t [ "comp (compare keys)"; "3 microseconds" ];
  U.Tablefmt.add_row t [ "hash (hash a key)"; "9 microseconds" ];
  U.Tablefmt.add_row t [ "move (move a tuple)"; "20 microseconds" ];
  U.Tablefmt.add_row t [ "swap (swap two tuples)"; "60 microseconds" ];
  U.Tablefmt.add_row t [ "IOseq"; "10 milliseconds" ];
  U.Tablefmt.add_row t [ "IOrand"; "25 milliseconds" ];
  U.Tablefmt.add_row t [ "F (universal fudge factor)"; "1.2" ];
  U.Tablefmt.add_row t [ "|S| pages"; "10,000" ];
  U.Tablefmt.add_row t [ "|R| pages"; "10,000" ];
  U.Tablefmt.add_row t [ "||R||/|R| tuples per page"; "40" ];
  U.Tablefmt.add_row t [ "||S||/|S| tuples per page"; "40" ];
  U.Tablefmt.print t;
  Printf.printf "\nencoded as: %s\n" (Format.asprintf "%a" S.Cost.pp c)

(* ------------------------------------------------------------------ *)
(* E4: Table 3 sensitivity sweep                                       *)
(* ------------------------------------------------------------------ *)

let table3 () =
  section
    "E4 Table 3: sensitivity — qualitative Figure 1 conclusions across the \
     tested parameter ranges";
  let corners = ref [] in
  List.iter (fun comp ->
      List.iter (fun hash ->
          List.iter (fun move ->
              List.iter (fun io_seq ->
                  List.iter (fun fudge ->
                      List.iter (fun s_pages ->
                          corners :=
                            {
                              JM.r_pages = 10_000;
                              JM.s_pages = s_pages;
                              JM.r_tuples_per_page = 40;
                              JM.s_tuples_per_page = 40;
                              JM.cost =
                                {
                                  S.Cost.comp;
                                  S.Cost.hash;
                                  S.Cost.move;
                                  S.Cost.swap = move *. 3.0;
                                  S.Cost.io_seq;
                                  S.Cost.io_rand = io_seq *. 2.5;
                                  S.Cost.fudge;
                                };
                            }
                            :: !corners)
                        [ 10_000; 50_000; 200_000 ])
                    [ 1.0; 1.2; 1.4 ])
                [ 5e-3; 10e-3 ])
            [ 10e-6; 50e-6 ])
        [ 2e-6; 50e-6 ])
    [ 1e-6; 10e-6 ];
  let total = List.length !corners in
  let hybrid_best = ref 0 in
  let hybrid_near_best = ref 0 in
  let hybrid_not_worst = ref 0 in
  let hybrid_beats_grace = ref 0 in
  let checks = ref 0 in
  List.iter
    (fun w ->
      List.iter
        (fun ratio ->
          let m =
            max (JM.min_memory w)
              (int_of_float (ratio *. float_of_int w.JM.r_pages *. w.JM.cost.S.Cost.fudge))
          in
          let costs = JM.all_four w ~m in
          let hybrid = List.assoc "hybrid" costs in
          let grace = List.assoc "grace" costs in
          let best = List.fold_left (fun a (_, c) -> Float.min a c) infinity costs in
          let worst = List.fold_left (fun a (_, c) -> Float.max a c) 0.0 costs in
          incr checks;
          if hybrid <= best +. 1e-9 then incr hybrid_best;
          if hybrid <= 1.35 *. best then incr hybrid_near_best;
          if hybrid < worst then incr hybrid_not_worst;
          if hybrid <= grace +. 1e-9 then incr hybrid_beats_grace)
        [ 0.05; 0.2; 0.4; 0.7; 1.0 ])
    !corners;
  let pct x = 100.0 *. float_of_int x /. float_of_int !checks in
  Printf.printf
    "parameter corners tested: %d (comp 1-10us x hash 2-50us x move 10-50us x \
     IOseq 5-10ms x F 1.0-1.4 x |S| 10k-200k pages), 5 memory ratios each.\n\
     hybrid cheapest or tied:     %4d / %d cost evaluations (%.1f%%)\n\
     hybrid within 1.35x of best: %4d / %d (%.1f%%) — the exception is the\n\
    \   narrow pre-0.5 window where simple hash briefly wins (Figure 1 note)\n\
     hybrid <= grace:             %4d / %d (%.1f%%)\n\
     hybrid never the worst:      %4d / %d\n\
     As in the paper: \"for each of these values we observed the same \
     qualitative shape and relative positioning\".\n"
    total !hybrid_best !checks (pct !hybrid_best)
    !hybrid_near_best !checks (pct !hybrid_near_best)
    !hybrid_beats_grace !checks (pct !hybrid_beats_grace)
    !hybrid_not_worst !checks

(* ------------------------------------------------------------------ *)
(* E5: recovery throughput ladder                                      *)
(* ------------------------------------------------------------------ *)

let recovery_tps () =
  section
    "E5 Section 5.2: transaction throughput by commit strategy (measured by \
     discrete-event simulation vs the paper's arithmetic)";
  let t =
    U.Tablefmt.create
      [ "strategy"; "measured tps"; "model tps"; "p50 latency"; "p99 latency" ]
  in
  let model = RM.gray_banking in
  let cases =
    [
      (R.Wal.Conventional, RM.conventional_tps model, 1500);
      (R.Wal.Group_commit, RM.group_commit_tps model, 5000);
      (R.Wal.Partitioned { devices = 2 }, RM.partitioned_tps model ~devices:2, 5000);
      (R.Wal.Partitioned { devices = 4 }, RM.partitioned_tps model ~devices:4, 8000);
      ( R.Wal.Stable { devices = 1; capacity_bytes = 64 * 1024; compressed = false },
        RM.stable_memory_tps model ~devices:1 ~compressed:false, 5000 );
      ( R.Wal.Stable { devices = 1; capacity_bytes = 64 * 1024; compressed = true },
        RM.stable_memory_tps model ~devices:1 ~compressed:true, 8000 );
    ]
  in
  List.iter
    (fun (strategy, predicted, n_txns) ->
      let r = R.Tps_sim.run ~nrecords:200_000 ~n_txns strategy in
      U.Tablefmt.add_row t
        [
          r.R.Tps_sim.strategy_label;
          U.Tablefmt.cell_float ~decimals:0 r.R.Tps_sim.tps;
          U.Tablefmt.cell_float ~decimals:0 predicted;
          Printf.sprintf "%.1f ms" (r.R.Tps_sim.latency.U.Stats.p50 *. 1e3);
          Printf.sprintf "%.1f ms" (r.R.Tps_sim.latency.U.Stats.p99 *. 1e3);
        ])
    cases;
  U.Tablefmt.print t;
  (* Conflict ablation: the topological ordering of commit groups
     serializes under contention. *)
  let hi =
    R.Tps_sim.run ~nrecords:60 ~n_txns:2000 (R.Wal.Partitioned { devices = 4 })
  in
  Printf.printf
    "\npaper: 100 tps conventional -> 1000 tps group commit (10 txns/page), \
     multiplied by log devices, 1800 tps with stable-memory compression.\n\
     ablation: partitioned-4 under heavy conflict (60 accounts) collapses to \
     %.0f tps — the dependency ordering (Section 5.2) serializes the \
     groups.\n"
    hi.R.Tps_sim.tps;
  (* Open-loop latency curve: group commit's batching trades latency for
     throughput as offered load approaches the 1000-tps ceiling. *)
  Printf.printf "\ngroup-commit latency vs offered load (open loop):\n\n";
  let t =
    U.Tablefmt.create
      [ "offered tps"; "achieved tps"; "p50 latency"; "p99 latency" ]
  in
  List.iter
    (fun offered ->
      let r =
        R.Tps_sim.run ~nrecords:200_000 ~n_txns:3000
          ~arrival_interval:(1.0 /. float_of_int offered)
          R.Wal.Group_commit
      in
      U.Tablefmt.add_row t
        [
          U.Tablefmt.cell_int offered;
          U.Tablefmt.cell_float ~decimals:0 r.R.Tps_sim.tps;
          Printf.sprintf "%.1f ms" (r.R.Tps_sim.latency.U.Stats.p50 *. 1e3);
          Printf.sprintf "%.1f ms" (r.R.Tps_sim.latency.U.Stats.p99 *. 1e3);
        ])
    [ 100; 400; 800; 950; 990 ];
  U.Tablefmt.print t;
  Printf.printf
    "\nat light load a commit waits for its group to fill (the batching \
     latency the paper's \"user is not notified until\" wording concedes); \
     near the ceiling queueing dominates.\n"

(* ------------------------------------------------------------------ *)
(* E6: log size                                                        *)
(* ------------------------------------------------------------------ *)

let log_size () =
  section
    "E6 Section 5.4: disk-log bytes with and without stable-memory \
     compression (new values only for committed transactions)";
  let base =
    { R.Recovery_manager.default_config with R.Recovery_manager.n_txns = 2000 }
  in
  let group =
    R.Recovery_manager.run
      { base with R.Recovery_manager.strategy = R.Wal.Group_commit }
  in
  let stable =
    R.Recovery_manager.run
      {
        base with
        R.Recovery_manager.strategy =
          R.Wal.Stable { devices = 1; capacity_bytes = 65536; compressed = true };
      }
  in
  let t = U.Tablefmt.create [ "strategy"; "txns"; "disk log bytes"; "bytes/txn" ] in
  let row name (o : R.Recovery_manager.outcome) =
    U.Tablefmt.add_row t
      [
        name;
        U.Tablefmt.cell_int o.R.Recovery_manager.durably_committed;
        U.Tablefmt.cell_int o.R.Recovery_manager.log_disk_bytes;
        U.Tablefmt.cell_float
          (float_of_int o.R.Recovery_manager.log_disk_bytes
          /. float_of_int o.R.Recovery_manager.durably_committed);
      ]
  in
  row "group commit (old+new)" group;
  row "stable memory (new only)" stable;
  U.Tablefmt.print t;
  Printf.printf
    "\nmeasured ratio %.3f; model predicts %.3f (220/400 bytes per \
     transaction) — \"approximately half of the size of the log stores the \
     old values\".\n"
    (float_of_int stable.R.Recovery_manager.log_disk_bytes
    /. float_of_int group.R.Recovery_manager.log_disk_bytes)
    (RM.log_compression_ratio RM.gray_banking)

(* ------------------------------------------------------------------ *)
(* E7: recovery time vs checkpoint interval                            *)
(* ------------------------------------------------------------------ *)

let recovery_time () =
  section
    "E7 Sections 5.3/5.5: recovery cost vs checkpoint frequency (dirty-page \
     table in stable memory bounds the redo scan)";
  let t =
    U.Tablefmt.create
      [ "ckpt every"; "ckpt pages"; "redo applied"; "log recs scanned";
        "recovery time"; "consistent" ]
  in
  List.iter
    (fun every ->
      let cfg =
        {
          R.Recovery_manager.default_config with
          R.Recovery_manager.n_txns = 2000;
          R.Recovery_manager.checkpoint_every = every;
          (* Crash just before the run ends, mid-checkpoint-interval, so
             the redo tail length reflects the checkpoint frequency. *)
          R.Recovery_manager.crash_after = Some 1999;
        }
      in
      let o = R.Recovery_manager.run cfg in
      U.Tablefmt.add_row t
        [
          (match every with Some k -> string_of_int k | None -> "never");
          U.Tablefmt.cell_int o.R.Recovery_manager.checkpoint_pages;
          U.Tablefmt.cell_int o.R.Recovery_manager.recover_stats.R.Kv_store.redo_applied;
          U.Tablefmt.cell_int
            o.R.Recovery_manager.recover_stats.R.Kv_store.records_scanned;
          Printf.sprintf "%.2f s"
            o.R.Recovery_manager.recover_stats.R.Kv_store.recovery_time;
          string_of_bool o.R.Recovery_manager.consistent;
        ])
    [ None; Some 1000; Some 500; Some 250; Some 100 ];
  U.Tablefmt.print t;
  Printf.printf
    "\nmore frequent checkpoints cost pages during normal processing but cut \
     redo work and recovery time, exactly the Section 5.3 trade.\n"

(* ------------------------------------------------------------------ *)
(* E8: access planning                                                 *)
(* ------------------------------------------------------------------ *)

let planning () =
  section
    "E8 Section 4: planning a star query with hashing available vs the \
     disk-era sort-merge-only optimizer";
  let db = Mmdb.Db.create ~mem_pages:512 () in
  let emp_schema =
    S.Schema.create ~key:"id"
      [
        S.Schema.column "id" S.Schema.Int;
        S.Schema.column "dept" S.Schema.Int;
        S.Schema.column "salary" S.Schema.Int;
      ]
  in
  let dept_schema =
    S.Schema.create ~key:"dept_id"
      [
        S.Schema.column "dept_id" S.Schema.Int;
        S.Schema.column "region" S.Schema.Int;
      ]
  in
  Mmdb.Db.create_table db ~name:"emp" ~schema:emp_schema;
  Mmdb.Db.create_table db ~name:"dept" ~schema:dept_schema;
  let rng = U.Xorshift.create 9 in
  Mmdb.Db.insert_many db ~table:"emp"
    (List.init 20_000 (fun i ->
         [
           S.Tuple.VInt i;
           S.Tuple.VInt (U.Xorshift.int rng 100);
           S.Tuple.VInt (30_000 + U.Xorshift.int rng 90_000);
         ]));
  Mmdb.Db.insert_many db ~table:"dept"
    (List.init 100 (fun i -> [ S.Tuple.VInt i; S.Tuple.VInt (i mod 7) ]));
  let q =
    A.aggregate ~group_by:"r_dept" ~aggs:[ E.Aggregate.Count ]
      (A.select ~column:"r_salary" ~op:A.Gt ~value:(S.Tuple.VInt 90_000)
         (A.join ~left_key:"dept" ~right_key:"dept_id" (A.scan "emp")
            (A.scan "dept")))
  in
  let cat = Mmdb.Db.catalog db in
  let hash_cfg =
    { P.Optimizer.mem_pages = 512; P.Optimizer.fudge = 1.2; P.Optimizer.allow_hash = true }
  in
  let sort_cfg = { hash_cfg with P.Optimizer.allow_hash = false } in
  let hash_plan = P.Optimizer.plan cat hash_cfg q in
  let sort_plan = P.Optimizer.plan cat sort_cfg q in
  Printf.printf "-- plan with hashing available (|M| = 512 pages):\n%s\n"
    (P.Optimizer.explain hash_plan);
  Printf.printf "-- plan restricted to sort-merge:\n%s\n"
    (P.Optimizer.explain sort_plan);
  Printf.printf "estimated cost: hash %.4f s vs sort-only %.4f s\n"
    (P.Optimizer.estimated_cost hash_plan)
    (P.Optimizer.estimated_cost sort_plan);
  let env = Mmdb.Db.env db in
  let measure cfg plan =
    let before = S.Env.elapsed env in
    let out = P.Executor.run cat cfg plan in
    (S.Env.elapsed env -. before, S.Relation.ntuples out)
  in
  let ht, hn = measure hash_cfg hash_plan in
  let st, sn = measure sort_cfg sort_plan in
  Printf.printf
    "executed: hash plan %.4f simulated s (%d rows); sort plan %.4f s (%d \
     rows).\nSection 4's claim: with enough memory there is effectively one \
     join algorithm, its output order never matters, and optimization \
     reduces to pushing selective operators down (see the filter under the \
     join in both plans).\n"
    ht hn st sn

(* ------------------------------------------------------------------ *)
(* E9: aggregates & projection                                         *)
(* ------------------------------------------------------------------ *)

let aggregates () =
  section
    "E9 Section 3.9: hash vs sort for aggregation and duplicate-eliminating \
     projection (\"the fastest algorithms for the join, projection, and \
     aggregate operators are based on hashing\")";
  let t =
    U.Tablefmt.create
      [ "groups"; "hash 1-pass (s)"; "hash hybrid (s)"; "sort-group (s)";
        "hash distinct (s)"; "sort distinct (s)" ]
  in
  List.iter
    (fun ngroups ->
      let env = S.Env.create () in
      let disk = S.Disk.create ~env ~page_size:4096 in
      let schema =
        S.Schema.create ~key:"g"
          [ S.Schema.column "g" S.Schema.Int; S.Schema.column "v" S.Schema.Int ]
      in
      let rng = U.Xorshift.create 13 in
      let rel =
        S.Relation.of_tuples ~disk ~name:"fact" ~schema
          (List.init 40_000 (fun i ->
               S.Tuple.encode schema
                 [
                   S.Tuple.VInt (U.Xorshift.int rng ngroups);
                   S.Tuple.VInt i;
                 ]))
      in
      let specs = [ E.Aggregate.Count; E.Aggregate.Sum "v" ] in
      let time f =
        let before = S.Env.elapsed env in
        let out = f () in
        S.Relation.free_pages out;
        S.Env.elapsed env -. before
      in
      let one_pass = time (fun () -> E.Aggregate.one_pass rel specs) in
      let hybrid =
        time (fun () -> E.Aggregate.hybrid ~mem_pages:8 ~fudge:1.2 rel specs)
      in
      let sort_agg =
        time (fun () -> E.Aggregate.sort_based ~mem_pages:8 rel specs)
      in
      let proj =
        time (fun () ->
            E.Projection.distinct ~mem_pages:8 ~fudge:1.2 ~cols:[ "g" ] rel)
      in
      let sort_proj =
        time (fun () ->
            E.Projection.sort_distinct ~mem_pages:8 ~cols:[ "g" ] rel)
      in
      U.Tablefmt.add_row t
        [
          U.Tablefmt.cell_int ngroups;
          U.Tablefmt.cell_float ~decimals:3 one_pass;
          U.Tablefmt.cell_float ~decimals:3 hybrid;
          U.Tablefmt.cell_float ~decimals:3 sort_agg;
          U.Tablefmt.cell_float ~decimals:3 proj;
          U.Tablefmt.cell_float ~decimals:3 sort_proj;
        ])
    [ 10; 1000; 40000 ];
  U.Tablefmt.print t;
  Printf.printf
    "\none-pass hashing wins whenever the result fits (\"who would ever want \
     to read even a 4 million byte report\"); even the spilling hybrid \
     variant beats the sort-based baseline, which pays the full \
     n log n (comp+swap) plus run I/O — Section 3.9's recommendation.\n"

(* ------------------------------------------------------------------ *)
(* Ablations (DESIGN.md)                                               *)
(* ------------------------------------------------------------------ *)

let ablations () =
  section "Ablation 1: buffer replacement policy vs the Section 2 fault model";
  let n = 20_000 in
  let schema = access_schema () in
  let env = S.Env.create () in
  let avl = I.Avl.create ~env ~schema () in
  let rng = U.Xorshift.create 17 in
  let keys = Array.init n (fun i -> i) in
  U.Xorshift.shuffle rng keys;
  Array.iter
    (fun k -> I.Avl.insert avl (S.Tuple.encode schema [ S.Tuple.VInt k; S.Tuple.VStr "" ]))
    keys;
  let nodes_per_page = 4096 / 48 in
  let pages = (I.Avl.node_count avl + nodes_per_page - 1) / nodes_per_page in
  let h = 0.5 in
  let t = U.Tablefmt.create [ "policy"; "faults/lookup"; "model (random)" ] in
  let c_model = (Float.log2 (float_of_int n) +. 0.25) *. (1.0 -. h) in
  List.iter
    (fun (name, policy) ->
      let disk = S.Disk.create ~env ~page_size:4096 in
      let pager =
        I.Pager.create ~disk
          ~pool_capacity:(int_of_float (h *. float_of_int pages))
          ~policy ~nodes_per_page
      in
      I.Pager.attach_avl pager avl;
      for _ = 1 to 1000 do
        ignore (I.Avl.search avl (S.Tuple.encode_int_key schema (U.Xorshift.int rng n)))
      done;
      let before = env.S.Env.counters.S.Counters.faults in
      for _ = 1 to 3000 do
        ignore (I.Avl.search avl (S.Tuple.encode_int_key schema (U.Xorshift.int rng n)))
      done;
      let faults = env.S.Env.counters.S.Counters.faults - before in
      I.Avl.set_visit_hook avl None;
      U.Tablefmt.add_row t
        [
          name;
          U.Tablefmt.cell_float (float_of_int faults /. 3000.0);
          U.Tablefmt.cell_float c_model;
        ])
    [
      ("random", S.Buffer_pool.Random_replacement (U.Xorshift.create 23));
      ("lru", S.Buffer_pool.Lru);
      ("clock", S.Buffer_pool.Clock);
      ("fifo", S.Buffer_pool.Fifo);
      ("lru-2", S.Buffer_pool.Lru_2);
    ];
  U.Tablefmt.print t;

  section
    "Ablation 2: TID-key pairs vs whole tuples in the hash table (Section \
     3.2) — smaller moves vs random fetches on output";
  let w = JM.table2_workload in
  let m = 6000 in
  let t = U.Tablefmt.create [ "join output tuples"; "whole tuples (s)"; "TID-key pairs (s)" ] in
  List.iter
    (fun output ->
      (* TID variant: moves shrink by the tuple/TID-pair width ratio
         (100 -> 16 bytes), but each output pair costs a random fetch. *)
      let whole = JM.hybrid_hash w ~m in
      let tid_w =
        { w with JM.cost = { w.JM.cost with S.Cost.move = 20e-6 *. 16.0 /. 100.0 } }
      in
      let tid =
        JM.hybrid_hash tid_w ~m
        +. (float_of_int output *. w.JM.cost.S.Cost.io_rand)
      in
      U.Tablefmt.add_row t
        [
          U.Tablefmt.cell_int output;
          U.Tablefmt.cell_float ~decimals:1 whole;
          U.Tablefmt.cell_float ~decimals:1 tid;
        ])
    [ 0; 1000; 10_000; 100_000; 1_000_000 ];
  U.Tablefmt.print t;
  Printf.printf
    "\"the cost of the random accesses to retrieve the tuples can exceed the \
     savings of using TIDs if the join produces a large number of tuples\".\n";

  section "Ablation 3: the hybrid-hash seam at |M| = |R|F/2 in detail";
  let t = U.Tablefmt.create [ "ratio"; "|M|"; "B"; "q"; "write mode"; "hybrid (s)" ] in
  List.iter
    (fun ratio ->
      let m = int_of_float (ratio *. 12_000.0) in
      let b = JM.hybrid_partitions w ~m in
      U.Tablefmt.add_row t
        [
          U.Tablefmt.cell_float ~decimals:3 ratio;
          U.Tablefmt.cell_int m;
          U.Tablefmt.cell_int b;
          U.Tablefmt.cell_float (JM.hybrid_q w ~m);
          (if b <= 1 then "IOseq" else "IOrand");
          U.Tablefmt.cell_float ~decimals:1 (JM.hybrid_hash w ~m);
        ])
    [ 0.44; 0.46; 0.48; 0.499; 0.5; 0.501; 0.52; 0.56 ];
  U.Tablefmt.print t;

  section
    "Ablation 4: group-commit unit — per-page vs per-track log writes \
     (Section 5.4's \"more efficient to write the log a track at a time\")";
  let clock = S.Sim_clock.create () in
  let t = U.Tablefmt.create [ "unit"; "bytes"; "write time"; "tps" ] in
  let run_unit name page_bytes page_write_time =
    let wal = R.Wal.create ~clock ~page_bytes ~page_write_time R.Wal.Group_commit in
    let n = 4000 in
    for i = 1 to n do
      let lsn0 = i * 10 in
      let records =
        R.Log_record.Begin { txn = i; lsn = lsn0 }
        :: List.init 6 (fun j ->
               R.Log_record.Update
                 { txn = i; lsn = lsn0 + 1 + j; slot = j; old_value = 0; new_value = j })
        @ [ R.Log_record.Commit { txn = i; lsn = lsn0 + 7 } ]
      in
      ignore (R.Wal.commit_txn wal ~at:0.0 ~txn:i ~deps:[] records)
    done;
    let done_at = R.Wal.flush wal ~at:0.0 in
    U.Tablefmt.add_row t
      [
        name;
        U.Tablefmt.cell_int page_bytes;
        Printf.sprintf "%.0f ms" (page_write_time *. 1e3);
        U.Tablefmt.cell_float ~decimals:0 (float_of_int n /. done_at);
      ]
  in
  (* A track holds ~8 pages and writes in ~25ms (one rotation) instead of
     8 x 10ms. *)
  run_unit "page (4 KiB, 10 ms)" 4096 10e-3;
  run_unit "track (32 KiB, 25 ms)" 32768 25e-3;
  U.Tablefmt.print t

(* ------------------------------------------------------------------ *)
(* E10: virtual memory vs explicit partitioning (Section 6)            *)
(* ------------------------------------------------------------------ *)

let vm_ablation () =
  section
    "E10 Section 6 (future work): \"the effect of virtual memory on query \
     processing\" — a hash join paging its table under VM vs explicit \
     hybrid-hash partitioning";
  let pages = 120 in
  let t =
    U.Tablefmt.create
      [ "|M|/(|R|F)"; "|M|"; "VM hash (s)"; "VM faults"; "hybrid (s)";
        "hybrid I/O" ]
  in
  List.iter
    (fun ratio ->
      let m = max 2 (int_of_float (ratio *. float_of_int pages *. 1.2)) in
      let measure f =
        let env, r, s = build_join_workload ~pages ~seed:5 in
        let before = S.Counters.snapshot env.S.Env.counters in
        let t0 = S.Env.elapsed env in
        ignore (f r s);
        ( S.Env.elapsed env -. t0,
          S.Counters.diff ~after:env.S.Env.counters ~before )
      in
      let vm_time, vm_c =
        measure (fun r s ->
            E.Vm_hash.join ~mem_pages:m ~fudge:1.2 r s (fun _ _ -> ()))
      in
      let hy_time, hy_c =
        measure (fun r s ->
            E.Hybrid_hash.join ~mem_pages:m ~fudge:1.2 r s (fun _ _ -> ()))
      in
      U.Tablefmt.add_row t
        [
          U.Tablefmt.cell_float ratio;
          U.Tablefmt.cell_int m;
          U.Tablefmt.cell_float ~decimals:2 vm_time;
          U.Tablefmt.cell_int vm_c.S.Counters.rand_reads;
          U.Tablefmt.cell_float ~decimals:2 hy_time;
          U.Tablefmt.cell_int (S.Counters.total_io hy_c);
        ])
    [ 0.1; 0.25; 0.5; 0.75; 1.0; 1.5 ];
  U.Tablefmt.print t;
  Printf.printf
    "\nBelow ratio 1.0, VM pays a random fault on a large fraction of table \
     touches (~2 per tuple) while hybrid does bounded sequential partition \
     I/O: explicit partitioning wins by an order of magnitude, converging \
     once everything fits — the implicit answer behind Section 3's design.\n"

(* ------------------------------------------------------------------ *)
(* E11: locking vs versioning (Section 6)                              *)
(* ------------------------------------------------------------------ *)

let mvcc () =
  section
    "E11 Section 6 (future work): \"a versioning mechanism [REED83] may \
     provide superior performance for memory resident systems\" — update \
     throughput with long read-only scans in the mix";
  let t =
    U.Tablefmt.create
      [ "scheme"; "writer tps"; "writer p99"; "readers"; "consistent";
        "peak versions" ]
  in
  List.iter
    (fun scheme ->
      let r = R.Mvcc_sim.run ~n_writers:20_000 scheme in
      U.Tablefmt.add_row t
        [
          r.R.Mvcc_sim.scheme_label;
          U.Tablefmt.cell_float ~decimals:0 r.R.Mvcc_sim.writer_tps;
          Printf.sprintf "%.0f ms" (r.R.Mvcc_sim.writer_p99_latency *. 1e3);
          U.Tablefmt.cell_int r.R.Mvcc_sim.reader_count;
          string_of_bool r.R.Mvcc_sim.snapshots_consistent;
          U.Tablefmt.cell_int r.R.Mvcc_sim.versions_peak;
        ])
    [ R.Mvcc_sim.Locking; R.Mvcc_sim.Versioning ];
  U.Tablefmt.print t;
  Printf.printf
    "\nA scanning reader every 2 s holding its lock for 1 s stalls half of \
     all updates under locking; under versioning writers never wait and the \
     reader's two-phase snapshot read stays zero-sum while writes proceed \
     beneath it.  The cost is the version-chain space, pruned at reader \
     completion.\n"

(* ------------------------------------------------------------------ *)
(* E12: B+-tree occupancy (bulk load vs Yao's 69%)                     *)
(* ------------------------------------------------------------------ *)

let bulk_load_bench () =
  section
    "E12 occupancy ablation: Yao's 69% (random insertion, assumed by the \
     Section 2 model) vs a 100% bulk-loaded B+-tree";
  let schema = access_schema () in
  let n = 30_000 in
  let env = S.Env.create () in
  let sorted = List.init n (fun i ->
      S.Tuple.encode schema [ S.Tuple.VInt i; S.Tuple.VStr "" ])
  in
  let incremental =
    let t = I.Btree.create ~env ~schema ~page_size:4096 () in
    let keys = Array.init n (fun i -> i) in
    U.Xorshift.shuffle (U.Xorshift.create 3) keys;
    Array.iter
      (fun k ->
        I.Btree.insert t (S.Tuple.encode schema [ S.Tuple.VInt k; S.Tuple.VStr "" ]))
      keys;
    t
  in
  let bulk_full = I.Btree.bulk_load ~env ~schema ~page_size:4096 sorted in
  let bulk_yao =
    I.Btree.bulk_load ~env ~schema ~page_size:4096 ~occupancy:0.69 sorted
  in
  let t = U.Tablefmt.create [ "build"; "occupancy"; "pages"; "leaves"; "height" ] in
  let row name tree =
    U.Tablefmt.add_row t
      [
        name;
        U.Tablefmt.cell_float (I.Btree.avg_leaf_occupancy tree);
        U.Tablefmt.cell_int (I.Btree.node_count tree);
        U.Tablefmt.cell_int (I.Btree.leaf_count tree);
        U.Tablefmt.cell_int (I.Btree.height tree);
      ]
  in
  row "random insertion" incremental;
  row "bulk load 69%" bulk_yao;
  row "bulk load 100%" bulk_full;
  U.Tablefmt.print t;
  let p = { AM.default with AM.r_tuples = n } in
  Printf.printf
    "\nmodel D (leaves at 69%%) = %d; random insertion and 69%% bulk load \
     agree with it, while a packed bulk load saves ~31%% of the pages — \
     shrinking S' and, with it, the memory needed before the AVL tree \
     catches up.\n"
    (AM.btree_leaf_pages p)

(* ------------------------------------------------------------------ *)
(* Bechamel microbenchmarks                                            *)
(* ------------------------------------------------------------------ *)

let bechamel_suite () =
  section "Bechamel wall-clock microbenchmarks of the hot operators";
  let module Bt = Bechamel.Test in
  let module Bs = Bechamel.Staged in
  let schema =
    S.Schema.create ~key:"k"
      [ S.Schema.column "k" S.Schema.Int; S.Schema.column "v" S.Schema.Int ]
  in
  let mk_tuple k = S.Tuple.encode schema [ S.Tuple.VInt k; S.Tuple.VInt k ] in
  let test_avl_insert =
    Bt.make ~name:"avl-insert-1k"
      (Bs.stage (fun () ->
           let env = S.Env.create () in
           let t = I.Avl.create ~env ~schema () in
           for k = 1 to 1000 do
             I.Avl.insert t (mk_tuple k)
           done))
  in
  let test_btree_insert =
    Bt.make ~name:"btree-insert-1k"
      (Bs.stage (fun () ->
           let env = S.Env.create () in
           let t = I.Btree.create ~env ~schema ~page_size:4096 () in
           for k = 1 to 1000 do
             I.Btree.insert t (mk_tuple k)
           done))
  in
  let search_tree =
    let env = S.Env.create () in
    let t = I.Btree.create ~env ~schema ~page_size:4096 () in
    for k = 1 to 10_000 do
      I.Btree.insert t (mk_tuple k)
    done;
    t
  in
  let probe = ref 0 in
  let test_btree_search =
    Bt.make ~name:"btree-search"
      (Bs.stage (fun () ->
           probe := (!probe mod 10_000) + 1;
           ignore (I.Btree.search search_tree (S.Tuple.encode_int_key schema !probe))))
  in
  let test_hybrid_join =
    Bt.make ~name:"hybrid-join-2k"
      (Bs.stage (fun () ->
           let env = S.Env.create () in
           let disk = S.Disk.create ~env ~page_size:512 in
           let mk name seed =
             let rng = U.Xorshift.create seed in
             S.Relation.of_tuples ~disk ~name ~schema
               (List.init 1000 (fun _ -> mk_tuple (U.Xorshift.int rng 500)))
           in
           let r = mk "r" 1 and s = mk "s" 2 in
           ignore (E.Hybrid_hash.join ~mem_pages:8 ~fudge:1.2 r s (fun _ _ -> ()))))
  in
  let test_sort =
    Bt.make ~name:"external-sort-2k"
      (Bs.stage (fun () ->
           let env = S.Env.create () in
           let disk = S.Disk.create ~env ~page_size:512 in
           let rng = U.Xorshift.create 3 in
           let r =
             S.Relation.of_tuples ~disk ~name:"r" ~schema
               (List.init 2000 (fun _ -> mk_tuple (U.Xorshift.int rng 100_000)))
           in
           ignore (E.External_sort.sort ~mem_pages:8 r)))
  in
  let test_wal =
    Bt.make ~name:"wal-group-commit-100"
      (Bs.stage (fun () ->
           let clock = S.Sim_clock.create () in
           let wal = R.Wal.create ~clock R.Wal.Group_commit in
           for i = 1 to 100 do
             ignore
               (R.Wal.commit_txn wal ~at:0.0 ~txn:i ~deps:[]
                  [
                    R.Log_record.Begin { txn = i; lsn = i * 2 };
                    R.Log_record.Commit { txn = i; lsn = (i * 2) + 1 };
                  ])
           done;
           ignore (R.Wal.flush wal ~at:0.0)))
  in
  let tests =
    Bt.make_grouped ~name:"mmdb"
      [
        test_avl_insert; test_btree_insert; test_btree_search;
        test_hybrid_join; test_sort; test_wal;
      ]
  in
  let cfg =
    Bechamel.Benchmark.cfg ~limit:500 ~quota:(Bechamel.Time.second 0.5) ()
  in
  let raw =
    Bechamel.Benchmark.all cfg
      [ Bechamel.Toolkit.Instance.monotonic_clock ]
      tests
  in
  let ols =
    Bechamel.Analyze.ols ~bootstrap:0 ~r_square:false
      ~predictors:[| Bechamel.Measure.run |]
  in
  let results =
    Bechamel.Analyze.all ols Bechamel.Toolkit.Instance.monotonic_clock raw
  in
  let t = U.Tablefmt.create [ "benchmark"; "ns/run" ] in
  Hashtbl.iter
    (fun name ols_result ->
      let est =
        match Bechamel.Analyze.OLS.estimates ols_result with
        | Some [ e ] -> Printf.sprintf "%.0f" e
        | _ -> "n/a"
      in
      U.Tablefmt.add_row t [ name; est ])
    results;
  U.Tablefmt.print t

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

(* ------------------------------------------------------------------ *)
(* Machine-readable outputs: BENCH_model.json and the golden            *)
(* Table 1 / Figure 1 regeneration diffed under `dune runtest`         *)
(* ------------------------------------------------------------------ *)

module V = Mmdb_verify

(* Hand-rolled JSON (no JSON library in the image).  Floats print as
   %.9g: enough digits to round-trip every value these emitters produce,
   few enough to stay platform-stable. *)
let json_escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let jstr s = "\"" ^ json_escape s ^ "\""

let jfloat x =
  if Float.is_integer x && Float.abs x < 1e15 then
    Printf.sprintf "%.0f" x
  else Printf.sprintf "%.9g" x

let jlist items = "[" ^ String.concat ", " items ^ "]"

let jobj fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> jstr k ^ ": " ^ v) fields)
  ^ "}"

let json_of_ops (o : JM.ops) seconds =
  jobj
    [
      ("comps", jfloat o.JM.comps);
      ("hashes", jfloat o.JM.hashes);
      ("moves", jfloat o.JM.moves);
      ("swaps", jfloat o.JM.swaps);
      ("seq_ios", jfloat o.JM.seq_ios);
      ("rand_ios", jfloat o.JM.rand_ios);
      ("seconds", jfloat seconds);
    ]

let json_of_diag (d : U.Diag.t) =
  jobj
    [
      ("code", jstr d.U.Diag.code);
      ( "severity",
        jstr
          (match d.U.Diag.severity with
          | U.Diag.Error -> "error"
          | U.Diag.Warning -> "warning") );
      ("path", jstr d.U.Diag.path);
      ("message", jstr d.U.Diag.message);
    ]

let json_of_case (c : V.Model_check.case) =
  let node (r : V.Model_check.node_report) =
    jobj
      [
        ("path", jstr r.V.Model_check.path);
        ("kind", jstr r.V.Model_check.kind);
        ( "predicted",
          json_of_ops r.V.Model_check.predicted
            r.V.Model_check.predicted_seconds );
        ( "observed",
          json_of_ops r.V.Model_check.observed
            r.V.Model_check.observed_seconds );
        ("diags", jlist (List.map json_of_diag r.V.Model_check.diags));
      ]
  in
  jobj
    [
      ("name", jstr c.V.Model_check.name);
      ("nodes", jlist (List.map node c.V.Model_check.reports));
      ("diags", jlist (List.map json_of_diag c.V.Model_check.diags));
    ]

(* E10: per-operator predicted vs observed, machine-readable. *)
let model_json () =
  let seed = 42 in
  let cases = V.Model_check.run_suite ~seed ~enumerate:true () in
  let doc =
    jobj
      [
        ("seed", string_of_int seed);
        ( "errors",
          string_of_int
            (List.length (U.Diag.errors (V.Model_check.suite_diags cases))) );
        ("cases", jlist (List.map json_of_case cases));
      ]
  in
  let oc = open_out "BENCH_model.json" in
  output_string oc doc;
  output_char oc '\n';
  close_out oc;
  Printf.printf
    "wrote BENCH_model.json (%d cases, per-operator predicted vs observed)\n"
    (List.length cases)

(* Recorder-overhead microbenchmark: the schedule recorder is the data
   source for the race detector, so its cost when enabled — and its
   zero-cost claim when disabled — gates whether recording can stay on
   in fuzz/CI runs.  Wall-clock via Sys.time (no unix dependency);
   repetitions amortise timer granularity. *)
let schedule_overhead () =
  let reps = 12 in
  let time_workload ~record () =
    let t0 = Sys.time () in
    let events = ref 0 in
    for rep = 1 to reps do
      let db =
        Mmdb.Txn_db.create ~record_schedule:record ~nrecords:256 ()
      in
      for i = 0 to 399 do
        let a = (i * 7 + rep) mod 256 and b = (i * 11 + rep * 3) mod 256 in
        if a <> b then ignore (Mmdb.Txn_db.transact db [ (a, 5); (b, -5) ]);
        Mmdb.Txn_db.advance db 0.0002
      done;
      Mmdb.Txn_db.flush db;
      events := !events + List.length (Mmdb.Txn_db.schedule db)
    done;
    (Sys.time () -. t0, !events)
  in
  (* Warm both paths once so allocation of shared structures is paid
     before measurement. *)
  ignore (time_workload ~record:false ());
  ignore (time_workload ~record:true ());
  let off_s, _ = time_workload ~record:false () in
  let on_s, events = time_workload ~record:true () in
  let per_event =
    if events = 0 then 0.0 else (on_s -. off_s) /. float_of_int events
  in
  let doc =
    jobj
      [
        ("workload", jstr "Txn_db transfer batch, 400 txns x 12 reps");
        ("reps", string_of_int reps);
        ("events_recorded", string_of_int events);
        ("seconds_recording_off", jfloat off_s);
        ("seconds_recording_on", jfloat on_s);
        ( "overhead_ratio",
          jfloat (if off_s > 0.0 then on_s /. off_s else 0.0) );
        ("seconds_per_event", jfloat per_event);
      ]
  in
  let oc = open_out "BENCH_schedule_overhead.json" in
  output_string oc doc;
  output_char oc '\n';
  close_out oc;
  Printf.printf
    "wrote BENCH_schedule_overhead.json (off %.4fs, on %.4fs over %d \
     events; %.1f ns/event)\n"
    off_s on_s events (per_event *. 1e9)

(* Before/after microbenchmarks for the PERF lint hot-path
   remediations: each section times a faithful replica of the removed
   idiom against the shipped one on identical input, and checksums both
   results so neither side can be dead-code-eliminated and the rewrite
   is shown value-equivalent.  One untimed warmup run precedes each
   measurement. *)
let hotpath_json () =
  let timed f =
    ignore (f ());
    let t0 = Sys.time () in
    let r = f () in
    (Sys.time () -. t0, r)
  in
  (* CLOCK hand admission (Buffer_pool): the old [hand @ [pid]] per
     admitted page is O(resident) each time — quadratic across a fill —
     vs the shipped Queue push. *)
  let clock_n = 1_200 and clock_reps = 300 in
  let clock_list () =
    let sum = ref 0 in
    for _ = 1 to clock_reps do
      let hand = ref [] in
      for pid = 0 to clock_n - 1 do
        hand := !hand @ [ pid ]
      done;
      sum := List.fold_left ( + ) !sum !hand
    done;
    !sum
  in
  let clock_queue () =
    let sum = ref 0 in
    for _ = 1 to clock_reps do
      let hand = Queue.create () in
      for pid = 0 to clock_n - 1 do
        Queue.push pid hand
      done;
      sum := Queue.fold ( + ) !sum hand
    done;
    !sum
  in
  (* WAL record assembly (Txn, the transaction kernel): the old
     [(Begin :: body) @ [Commit]] re-copies the body once per
     transaction vs the shipped newest-first accumulation with one final
     reverse. *)
  let log_txns = 200 and log_updates = 3_000 and log_reps = 5 in
  let upd = List.init log_updates (fun i -> i) in
  let log_tail_append () =
    let sum = ref 0 in
    for _ = 1 to log_reps do
      for t = 1 to log_txns do
        let body = List.map (fun i -> ((t * 31) + i) land 4095) upd in
        let records = ((1000 + t) :: body) @ [ t ] in
        sum := List.fold_left ( + ) !sum records
      done
    done;
    !sum
  in
  let log_rev_acc () =
    let sum = ref 0 in
    for _ = 1 to log_reps do
      for t = 1 to log_txns do
        let rev_body = List.rev_map (fun i -> ((t * 31) + i) land 4095) upd in
        let records = (1000 + t) :: List.rev (t :: rev_body) in
        sum := List.fold_left ( + ) !sum records
      done
    done;
    !sum
  in
  (* Deadlock-cycle hop rendering (Txn_check): the old
     [List.nth cycle ((i + 1) mod List.length cycle)] per hop is O(n)
     twice per element vs indexing one [Array.of_list] snapshot. *)
  let cyc_n = 1_500 and cyc_reps = 40 in
  let cycle = List.init cyc_n (fun i -> i * 7) in
  let cycle_nth () =
    let sum = ref 0 in
    for _ = 1 to cyc_reps do
      List.iteri
        (fun i _ ->
          sum := !sum + List.nth cycle ((i + 1) mod List.length cycle))
        cycle
    done;
    !sum
  in
  let cycle_array () =
    let sum = ref 0 in
    for _ = 1 to cyc_reps do
      let arr = Array.of_list cycle in
      List.iteri
        (fun i _ -> sum := !sum + arr.((i + 1) mod Array.length arr))
        cycle
    done;
    !sum
  in
  let section ~name ~workload before after =
    let before_s, before_sum = timed before in
    let after_s, after_sum = timed after in
    let speedup = if after_s > 0.0 then before_s /. after_s else 0.0 in
    Printf.printf "%-12s before %.4fs, after %.4fs (%.1fx)%s\n" name before_s
      after_s speedup
      (if before_sum = after_sum then "" else "  CHECKSUM MISMATCH");
    jobj
      [
        ("name", jstr name);
        ("workload", jstr workload);
        ("seconds_before", jfloat before_s);
        ("seconds_after", jfloat after_s);
        ("speedup", jfloat speedup);
        ("checksums_match", (if before_sum = after_sum then "true" else "false"));
      ]
  in
  let doc =
    jobj
      [
        ( "note",
          jstr
            "replicas of the idioms the PERF lint retired (PERF101/PERF102) \
             vs the shipped rewrites, identical inputs, checksummed" );
        ( "sections",
          jlist
            [
              section ~name:"clock-hand"
                ~workload:
                  (Printf.sprintf "admit %d pids x %d reps" clock_n
                     clock_reps)
                clock_list clock_queue;
              section ~name:"log-append"
                ~workload:
                  (Printf.sprintf "%d txns x %d updates x %d reps" log_txns
                     log_updates log_reps)
                log_tail_append log_rev_acc;
              section ~name:"cycle-walk"
                ~workload:
                  (Printf.sprintf "%d-txn cycle x %d reps" cyc_n cyc_reps)
                cycle_nth cycle_array;
            ] );
      ]
  in
  let oc = open_out "BENCH_hotpath.json" in
  output_string oc doc;
  output_char oc '\n';
  close_out oc;
  print_endline "wrote BENCH_hotpath.json"

(* Canonical Table 1 + Figure 1 regeneration.  Printed to stdout; a dune
   rule captures it and diffs against bench/golden/table1_figure1.json so
   CI catches any drift in the analytic model (`dune promote` accepts an
   intentional change). *)
let golden_json () =
  let table1_rows =
    List.map
      (fun z ->
        jobj
          [
            ("z", jfloat z);
            ( "cells",
              jlist
                (List.map
                   (fun y ->
                     jobj
                       [
                         ("y", jfloat y);
                         ( "h",
                           jfloat
                             (AM.crossover_h { AM.default with AM.z; AM.y })
                         );
                       ])
                   ys) );
          ])
      zs
  in
  let w = JM.table2_workload in
  let rf = float_of_int w.JM.r_pages *. w.JM.cost.S.Cost.fudge in
  let figure1_rows =
    List.map
      (fun ratio ->
        let m = max (JM.min_memory w) (int_of_float (ratio *. rf)) in
        let costs =
          List.map
            (fun (name, ops) -> (name, jfloat (JM.seconds w.JM.cost ops)))
            (JM.all_four_ops w ~m)
        in
        jobj
          ([
             ("ratio", jfloat ratio);
             ("mem_pages", string_of_int m);
           ]
          @ costs
          @ [
              ("hybrid_partitions", string_of_int (JM.hybrid_partitions w ~m));
              ("hybrid_q", jfloat (JM.hybrid_q w ~m));
              ("simple_passes", string_of_int (JM.simple_hash_passes w ~m));
            ]))
      figure1_ratios
  in
  print_string
    (jobj
       [
         ( "table1",
           jobj
             [
               ("description", jstr "fraction H resident for AVL to win");
               ("rows", jlist table1_rows);
             ] );
         ( "figure1",
           jobj
             [
               ( "description",
                 jstr "analytic join costs (s), |R|=|S|=10000 pages" );
               ("rows", jlist figure1_rows);
             ] );
       ]);
  print_newline ()

(* Recovery-time-vs-workers ladder (a persistent perf trajectory): one
   crash-recovery run per (workers x logging mode) cell of a fixed seeded
   workload, emitting the modelled recovery time and the replay work
   breakdown.  It fails unless value-logged recovery time strictly
   decreases over workers 1/2/4/8.  `dune runtest` regenerates the file
   and diffs it against the committed copy. *)
let recovery_json () =
  let cell ~workers ~mode ~label =
    let cfg =
      {
        R.Recovery_manager.default_config with
        R.Recovery_manager.n_txns = 2000;
        checkpoint_every = Some 500;
        crash_after = Some 1999;
        seed = 7;
        replay =
          {
            R.Recovery_manager.workers;
            use_domains = false;
            logging = mode;
            crash_steps = None;
            record_replay = false;
            serve_stale = false;
          };
      }
    in
    let o = R.Recovery_manager.run cfg in
    let st = o.R.Recovery_manager.recover_stats in
    if not (o.R.Recovery_manager.consistent
            && o.R.Recovery_manager.money_conserved) then
      failwith
        (Printf.sprintf "recovery-json: inconsistent cell %s w=%d" label
           workers);
    ( st.R.Kv_store.recovery_time,
      jobj
        [
          ("workers", string_of_int workers);
          ("logging", jstr label);
          ("recovery_seconds", jfloat st.R.Kv_store.recovery_time);
          ("redo_ops", string_of_int st.R.Kv_store.redo_applied);
          ("local_value_ops", string_of_int st.R.Kv_store.local_value_ops);
          ("local_command_ops", string_of_int st.R.Kv_store.local_command_ops);
          ("barrier_ops", string_of_int st.R.Kv_store.barrier_ops);
          ("barriers", string_of_int st.R.Kv_store.barriers);
          ("undo_ops", string_of_int st.R.Kv_store.undo_applied);
          ("pages_written_back",
           string_of_int st.R.Kv_store.pages_written_back);
          ("log_bytes_scanned", string_of_int st.R.Kv_store.log_bytes_scanned);
          ("log_disk_bytes",
           string_of_int o.R.Recovery_manager.log_disk_bytes);
          ("command_txns", string_of_int o.R.Recovery_manager.command_txns);
        ] )
  in
  let ladders =
    List.map
      (fun (mode, label) ->
        List.map
          (fun workers -> cell ~workers ~mode ~label)
          [ 1; 2; 4; 8 ])
      [
        (R.Recovery_manager.Value_logging, "value");
        (R.Recovery_manager.Command_logging, "command");
        (R.Recovery_manager.Adaptive_logging, "adaptive");
      ]
  in
  let rec decreasing = function
    | a :: (b :: _ as rest) -> a > b && decreasing rest
    | _ -> true
  in
  (match ladders with
  | value :: _ when decreasing (List.map fst value) -> ()
  | _ ->
    failwith
      "recovery-json: value-logged recovery time does not strictly \
       decrease over workers 1/2/4/8");
  let rows = List.concat_map (List.map snd) ladders in
  let doc =
    jobj
      [
        ("schema", jstr "mmdb.bench.recovery.v1");
        ( "workload",
          jstr
            "500 accounts, 20 records/page, 6 updates/txn, 2000 txns, \
             checkpoint every 500, crash after 1999, seed 7" );
        ("rows", jlist rows);
      ]
  in
  let oc = open_out "BENCH_recovery.json" in
  output_string oc doc;
  output_char oc '\n';
  close_out oc;
  Printf.printf
    "wrote BENCH_recovery.json (%d cells: workers 1/2/4/8 x \
     value/command/adaptive)\n"
    (List.length rows)

(* Overload-resilience curves: four open-loop cells over the same seeded
   Poisson arrival process — a calm protected baseline, the protected
   service under a 10x spike (with and without a transient-fault storm),
   and the unprotected control (no admission, no in-service deadline
   aborts) under the same assault.  The failwith asserts encode the
   acceptance bar: protected goodput under spike + storm stays >= 50% of
   the calm baseline while the unprotected service collapses below 50%.
   `dune runtest` regenerates the file and diffs it against the committed
   copy. *)
let overload_json () =
  let module OS = Mmdb.Overload_sim in
  let cell ~label ~spike ~storm ~protected =
    let cfg =
      {
        OS.default_config with
        OS.seed = 7;
        OS.duration = 4.0;
        OS.spike_mult = (if spike then 10.0 else 1.0);
        OS.storm = storm;
        OS.admission = protected;
        OS.enforce_deadlines = protected;
      }
    in
    let o = OS.run cfg in
    if not o.OS.money_conserved then
      failwith ("overload-json: money not conserved in cell " ^ label);
    let bucket (b : OS.bucket) =
      jobj
        [
          ("t", jfloat b.OS.b_start);
          ("arrivals", string_of_int b.OS.b_arrivals);
          ("goodput", string_of_int b.OS.b_goodput);
          ("shed", string_of_int b.OS.b_shed);
          ("timed_out", string_of_int b.OS.b_timed_out);
          ("late", string_of_int b.OS.b_late);
          ("p99_ms", jfloat (b.OS.b_p99_latency *. 1e3));
        ]
    in
    let row =
      jobj
        [
          ("label", jstr label);
          ("admission", string_of_bool cfg.OS.admission);
          ("deadlines_enforced", string_of_bool cfg.OS.enforce_deadlines);
          ("spike_mult", jfloat cfg.OS.spike_mult);
          ("storm", string_of_bool storm);
          ("arrivals", string_of_int o.OS.arrivals);
          ("goodput_txns", string_of_int o.OS.goodput_txns);
          ("goodput_tps", jfloat o.OS.goodput_tps);
          ("committed", string_of_int o.OS.committed);
          ("late", string_of_int o.OS.late);
          ("shed", string_of_int o.OS.shed);
          ("timed_out", string_of_int o.OS.timed_out);
          ("io_failures", string_of_int o.OS.io_failures);
          ("p50_ms", jfloat (o.OS.p50_latency *. 1e3));
          ("p99_ms", jfloat (o.OS.p99_latency *. 1e3));
          ( "shed_codes",
            jobj
              (List.map
                 (fun (c, n) -> (c, string_of_int n))
                 o.OS.shed_codes) );
          ("breaker_trips", string_of_int o.OS.breaker_trips);
          ("breaker_reopens", string_of_int o.OS.breaker_reopens);
          ("breaker_final", jstr o.OS.breaker_final);
          ("buckets", jlist (List.map bucket o.OS.buckets));
        ]
    in
    (o, row)
  in
  let base, jbase =
    cell ~label:"baseline" ~spike:false ~storm:false ~protected:true
  in
  let _, jspike =
    cell ~label:"protected-spike" ~spike:true ~storm:false ~protected:true
  in
  let prot, jprot =
    cell ~label:"protected-spike-storm" ~spike:true ~storm:true
      ~protected:true
  in
  let unprot, junprot =
    cell ~label:"unprotected-spike-storm" ~spike:true ~storm:true
      ~protected:false
  in
  let module OS = Mmdb.Overload_sim in
  let ratio o = o.OS.goodput_tps /. base.OS.goodput_tps in
  if ratio prot < 0.5 then
    failwith
      (Printf.sprintf
         "overload-json: protected goodput collapsed (%.2f of baseline)"
         (ratio prot));
  if ratio unprot >= 0.5 then
    failwith
      (Printf.sprintf
         "overload-json: unprotected control failed to collapse (%.2f of \
          baseline)"
         (ratio unprot));
  if prot.OS.breaker_trips < 1 then
    failwith "overload-json: storm never tripped the breaker";
  let doc =
    jobj
      [
        ("schema", jstr "mmdb.bench.overload.v1");
        ( "workload",
          jstr
            "open loop, 4s of Poisson arrivals at 700/s (10x spike in \
             [1,2)s), 512 accounts, 2 updates/txn at 250us each, 50ms \
             deadlines, 15% analytic, group commit, storm = transient \
             log faults over a write window, seed 7" );
        ( "acceptance",
          jobj
            [
              ("baseline_goodput_tps", jfloat base.OS.goodput_tps);
              ("protected_ratio", jfloat (ratio prot));
              ("unprotected_ratio", jfloat (ratio unprot));
              ( "bar",
                jstr
                  "protected spike+storm goodput >= 0.5 x calm baseline; \
                   unprotected control < 0.5 (collapse)" );
            ] );
        ("rows", jlist [ jbase; jspike; jprot; junprot ]);
      ]
  in
  let oc = open_out "BENCH_overload.json" in
  output_string oc doc;
  output_char oc '\n';
  close_out oc;
  Printf.printf
    "wrote BENCH_overload.json (baseline %.0f tps; protected spike+storm \
     %.0f tps = %.2fx; unprotected %.0f tps = %.2fx)\n"
    base.OS.goodput_tps prot.OS.goodput_tps (ratio prot)
    unprot.OS.goodput_tps (ratio unprot)

let experiments =
  [
    ("table1", "Table 1: AVL vs B+-tree crossover (random access)", table1);
    ("table1-seq", "Table 1 analogue for sequential access", table1_seq);
    ("access-empirical", "measured AVL/B+-tree faults vs the model", access_empirical);
    ("figure1", "Figure 1: the four join algorithms (analytic)", figure1);
    ("figure1-empirical", "Figure 1 on the executable joins", figure1_empirical);
    ("table2", "Table 2: parameter settings", table2);
    ("table3", "Table 3: sensitivity sweep", table3);
    ("recovery-tps", "Section 5.2 commit-strategy throughput ladder", recovery_tps);
    ("log-size", "Section 5.4 log compression", log_size);
    ("recovery-time", "Sections 5.3/5.5 checkpointing vs recovery time", recovery_time);
    ("planning", "Section 4 access planning", planning);
    ("aggregates", "Section 3.9 aggregates and projection", aggregates);
    ("ablations", "design-choice ablations (DESIGN.md)", ablations);
    ("vm", "Section 6: VM paging vs explicit partitioning", vm_ablation);
    ("mvcc", "Section 6: locking vs versioning", mvcc);
    ("bulk-load", "B+-tree occupancy: 69% vs bulk-loaded", bulk_load_bench);
    ("model-json", "write BENCH_model.json (predicted vs observed)", model_json);
    ("schedule-overhead", "write BENCH_schedule_overhead.json (recorder cost)", schedule_overhead);
    ("hotpath-json", "write BENCH_hotpath.json (hot-path remediation wins)", hotpath_json);
    ("golden-json", "Table 1 + Figure 1 as canonical JSON (CI golden)", golden_json);
    ("recovery-json", "write BENCH_recovery.json (parallel-replay ladder)", recovery_json);
    ("overload-json", "write BENCH_overload.json (overload-resilience curves)", overload_json);
  ]

let usage () =
  print_endline "usage: main.exe [-e EXPERIMENT] [--list] [--bechamel]";
  print_endline "experiments:";
  List.iter (fun (id, descr, _) -> Printf.printf "  %-18s %s\n" id descr)
    experiments

let () =
  let args = Array.to_list Sys.argv in
  match args with
  | _ :: "--list" :: _ -> usage ()
  | _ :: "--bechamel" :: _ -> bechamel_suite ()
  | _ :: "-e" :: id :: _ -> (
    match List.find_opt (fun (i, _, _) -> i = id) experiments with
    | Some (_, _, run) -> run ()
    | None ->
      Printf.printf "unknown experiment %S\n\n" id;
      usage ();
      exit 1)
  | [ _ ] ->
    print_endline
      "mmdb benchmark harness - reproducing DeWitt et al., SIGMOD 1984";
    List.iter (fun (_, _, run) -> run ()) experiments
  | _ ->
    usage ();
    exit 1
