(* Benchmark harness: regenerates every table and figure of DeWitt et al.
   1984 (see DESIGN.md's experiment index E1..E12 plus ablations), printing
   paper-formatted rows.  Each experiment returns the paper's claims about
   its rows as named booleans; the driver prints `claim failed: <id>:
   <name>` on stderr for each false one and exits 1.  `dune exec
   bench/main.exe` runs everything; `-e <id>` selects one experiment;
   `--list` enumerates; `--bechamel` runs wall-clock microbenchmarks of the
   hot operators instead. *)

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

let int_schema ~key cols =
  S.Schema.create ~key (List.map (fun c -> S.Schema.column c S.Schema.Int) cols)

(* Claim helpers. *)
let rec ascending = function
  | a :: (b :: _ as rest) -> a < b && ascending rest
  | _ -> true

let descending l = ascending (List.rev l)
let within ~rel ~model x = Float.abs (x -. model) <= rel *. model

let zs = [ 10.0; 20.0; 30.0 ]
let ys = [ 0.5; 0.75; 1.0 ]

(* ------------------------------------------------------------------ *)
(* E1 / E1b: Table 1 — AVL vs B+-tree crossover                        *)
(* ------------------------------------------------------------------ *)

(* Table 1's H for every (Z, [(Y, H)]) row; `golden-json` prints the same
   values. *)
let table1_cells () =
  List.map
    (fun z ->
      (z, List.map (fun y -> (y, AM.crossover_h { AM.default with AM.z; AM.y })) ys))
    zs

let print_zy_grid rows =
  let t =
    U.Tablefmt.create
      ("Z \\ Y" :: List.map (fun y -> Printf.sprintf "Y=%.2f" y) ys)
  in
  List.iter
    (fun (z, hs) ->
      U.Tablefmt.add_row t
        (Printf.sprintf "Z=%.0f" z
        :: List.map (U.Tablefmt.cell_float ~decimals:3) hs))
    rows;
  U.Tablefmt.print t

let table1 () =
  section
    "E1 Table 1: fraction H of the AVL structure that must be memory-resident \
     for the AVL tree to beat the B+-tree (random single-tuple access)";
  Printf.printf "parameters: %s\n\n" (Format.asprintf "%a" AM.pp AM.default);
  let cells = table1_cells () in
  print_zy_grid (List.map (fun (z, row) -> (z, List.map snd row)) cells);
  Printf.printf
    "\npaper: \"a very high percentage of the tree must be in main memory for \
     an AVL-Tree to be competitive\" (80-90%%+): all cells are >= 0.80.\n";
  let column y = List.map (fun (_, row) -> List.assoc y row) cells in
  let y1 = column 1.0 in
  [
    ( "every H >= 0.80",
      List.for_all (fun (_, row) -> List.for_all (fun (_, h) -> h >= 0.80) row) cells );
    ( "H rises with Z at Y < 1",
      List.for_all (fun y -> y >= 1.0 || ascending (column y)) ys );
    ( "the Y=1 column spans < 0.001",
      List.fold_left Float.max 0.0 y1 -. List.fold_left Float.min 1.0 y1 < 0.001 );
  ]

let table1_seq () =
  section
    "E1b Table 1 (sequential-access analogue): crossover H' for reading N \
     records sequentially (inequality (2); the paper notes Table 1 applies)";
  (* (H, H') per cell, for each N. *)
  let grid n (z, row) =
    (z, List.map (fun (y, h) -> (h, AM.crossover_h_seq { AM.default with AM.z; AM.y } ~n)) row)
  in
  let grids =
    List.map (fun n -> (n, List.map (grid n) (table1_cells ()))) [ 100; 1000; 10000 ]
  in
  List.iter
    (fun (n, grid) ->
      Printf.printf "N = %d records:\n" n;
      print_zy_grid (List.map (fun (z, row) -> (z, List.map snd row)) grid);
      print_newline ())
    grids;
  [
    ( "every H' >= H at the same (Z, Y)",
      List.for_all
        (fun (_, grid) ->
          List.for_all (fun (_, row) -> List.for_all (fun (h, h') -> h' >= h) row) grid)
        grids );
  ]

(* ------------------------------------------------------------------ *)
(* E1c: empirical cross-check of the Section 2 fault model             *)
(* ------------------------------------------------------------------ *)

let access_schema =
  S.Schema.create ~key:"k"
    [
      S.Schema.column "k" S.Schema.Int;
      S.Schema.column ~width:32 "pad" S.Schema.Fixed_string;
    ]

let access_tuple k = S.Tuple.encode access_schema [ S.Tuple.VInt k; S.Tuple.VStr "" ]

(* Keys 0..n-1 in the order [rng] shuffles them to. *)
let shuffled_keys rng n =
  let keys = Array.init n (fun i -> i) in
  U.Xorshift.shuffle rng keys;
  keys

type tree = Avl of I.Avl.t | Btree of I.Btree.t

(* Counter deltas over [probes] lookups of keys in [0, n) drawn from [rng],
   after 1000 warm-up lookups, with [tree]'s node visits faulting through
   a fresh pool of [cap] pages.  Each caller's draws come from its own
   generator in a fixed order. *)
let probe_pool env rng ~n ~probes ~cap ~policy ~nodes_per_page tree =
  let disk = S.Disk.create ~env ~page_size:4096 in
  let pager =
    I.Pager.create ~disk ~pool_capacity:cap ~policy ~nodes_per_page
  in
  let search =
    match tree with
    | Avl t -> I.Pager.attach_avl pager t; I.Avl.search t
    | Btree t -> I.Pager.attach_btree pager t; I.Btree.search t
  in
  let lookups k =
    for _ = 1 to k do
      ignore (search (S.Tuple.encode_int_key access_schema (U.Xorshift.int rng n)))
    done
  in
  lookups 1000;
  let before = S.Counters.snapshot env.S.Env.counters in
  lookups probes;
  S.Counters.diff ~after:env.S.Env.counters ~before

let access_empirical () =
  section
    "E1c: measured faults/comparisons of the real AVL and B+-tree under a \
     buffer pool with random replacement, against the Section 2 model";
  let n = 30_000 in
  let probes = 3000 in
  let t =
    U.Tablefmt.create [ "structure"; "H"; "faults/lkp"; "model"; "comps/lkp"; "model" ]
  in
  let rng = U.Xorshift.create 11 in
  let keys = shuffled_keys rng n in
  (* One row per memory fraction H; returns (measured, model) faults. *)
  let rows name env tree ~pages ~nodes_per_page ~seed ~c ~comps_model =
    List.map
      (fun h ->
        let d =
          probe_pool env rng ~n ~probes
            ~cap:(max 1 (int_of_float (h *. float_of_int pages)))
            ~policy:(S.Buffer_pool.Random_replacement (U.Xorshift.create seed))
            ~nodes_per_page tree
        in
        let per x = float_of_int x /. float_of_int probes in
        let faults = per d.S.Counters.faults and model = c *. (1.0 -. h) in
        U.Tablefmt.add_row t
          [
            name;
            U.Tablefmt.cell_float h;
            U.Tablefmt.cell_float faults;
            U.Tablefmt.cell_float model;
            U.Tablefmt.cell_float (per d.S.Counters.comparisons);
            U.Tablefmt.cell_float comps_model;
          ];
        (faults, model))
      [ 0.25; 0.50; 0.75; 0.95 ]
  in
  (* AVL: nodes of t + 2s bytes, several per page. *)
  let env = S.Env.create () in
  let avl = I.Avl.create ~env ~schema:access_schema () in
  Array.iter (fun k -> I.Avl.insert avl (access_tuple k)) keys;
  let nodes_per_page = 4096 / (S.Schema.tuple_width access_schema + 8) in
  let avl_pages =
    (I.Avl.node_count avl + nodes_per_page - 1) / nodes_per_page
  in
  let c_model = Float.log2 (float_of_int n) +. 0.25 in
  let avl_rows =
    rows "AVL" env (Avl avl) ~pages:avl_pages ~nodes_per_page ~seed:3
      ~c:c_model ~comps_model:c_model
  in
  U.Tablefmt.add_rule t;
  (* B+-tree: one node per page. *)
  let env = S.Env.create () in
  let bt = I.Btree.create ~env ~schema:access_schema ~page_size:4096 () in
  Array.iter (fun k -> I.Btree.insert bt (access_tuple k)) keys;
  let bt_pages = I.Btree.node_count bt in
  let height = I.Btree.height bt in
  let bt_rows =
    rows "B+-tree" env (Btree bt) ~pages:bt_pages ~nodes_per_page:1 ~seed:5
      ~c:(float_of_int height)
      ~comps_model:(Float.ceil (Float.log2 (float_of_int n)))
  in
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
    avl_pages nodes_per_page bt_pages height;
  [
    ( "B+-tree faults/lookup below the AVL tree's at every H",
      List.for_all2 (fun (b, _) (a, _) -> b < a) bt_rows avl_rows );
    ( "measured faults <= model for both structures",
      List.for_all (fun (f, m) -> f <= m) (avl_rows @ bt_rows) );
  ]

(* ------------------------------------------------------------------ *)
(* E2: Figure 1 (analytic)                                             *)
(* ------------------------------------------------------------------ *)

let figure1_ratios =
  [ 0.0316; 0.05; 0.1; 0.15; 0.2; 0.3; 0.4; 0.45; 0.499; 0.5; 0.55; 0.6;
    0.7; 0.8; 0.9; 0.99; 1.0 ]

type figure1_point = {
  ratio : float;
  m : int;
  costs : (string * float) list;  (** [JM.all_four] *)
  b : int;
  q : float;
  passes : int;
}

(* |R| * F under Table 2's parameters: Figure 1's x-axis unit. *)
let table2_rf =
  float_of_int JM.table2_workload.JM.r_pages *. JM.table2_workload.JM.cost.S.Cost.fudge

(* Figure 1 at each ratio; `golden-json` prints the same values. *)
let figure1_points () =
  let w = JM.table2_workload in
  List.map
    (fun ratio ->
      let m = max (JM.min_memory w) (int_of_float (ratio *. table2_rf)) in
      {
        ratio;
        m;
        costs = JM.all_four w ~m;
        b = JM.hybrid_partitions w ~m;
        q = JM.hybrid_q w ~m;
        passes = JM.simple_hash_passes w ~m;
      })
    figure1_ratios

let figure1 () =
  section
    "E2 Figure 1: execution time (s) of the four join algorithms vs \
     |M| / (|R| * F), Table 2 parameters (|R| = |S| = 10,000 pages)";
  let t =
    U.Tablefmt.create
      [ "|M|/(|R|F)"; "|M|"; "sort-merge"; "simple"; "grace"; "hybrid";
        "B"; "q"; "A" ]
  in
  let points = figure1_points () in
  let cost p name = List.assoc name p.costs in
  List.iter
    (fun p ->
      U.Tablefmt.add_row t
        ((U.Tablefmt.cell_float ~decimals:4 p.ratio :: U.Tablefmt.cell_int p.m
         :: List.map (fun (_, c) -> U.Tablefmt.cell_float ~decimals:1 c) p.costs)
        @ [ U.Tablefmt.cell_int p.b; U.Tablefmt.cell_float p.q; U.Tablefmt.cell_int p.passes ]))
    points;
  U.Tablefmt.print t;
  let above = JM.sort_merge JM.table2_workload ~m:(int_of_float (1.5 *. table2_rf)) in
  Printf.printf
    "\nabove ratio 1.0 sort-merge improves to %.0f s (paper: \"approximately \
     900 seconds\"); note the hybrid discontinuity crossing 0.5 (B: 2 -> 1, \
     random -> sequential writes) and the small region below 0.5 where simple \
     hash wins — both discussed under Figure 1 in the paper.\n"
    above;
  let at r = List.find (fun p -> p.ratio = r) points in
  let half = at 0.5 and past = at 0.55 and full = at 1.0 in
  [
    ( "hybrid <= GRACE at every ratio",
      List.for_all (fun p -> cost p "hybrid" <= cost p "grace") points );
    ("sort-merge at ratio 1.5 within 5% of 900 s", within ~rel:0.05 ~model:900.0 above);
    ( "hybrid drops > 100 s from ratio 0.5 to 0.55 as B goes 2 -> 1",
      cost half "hybrid" -. cost past "hybrid" > 100.0 && half.b = 2 && past.b = 1 );
    ( "simple < 0.99 x hybrid exactly at ratios 0.40-0.50",
      List.for_all
        (fun p ->
          (cost p "simple" < 0.99 *. cost p "hybrid")
          = (p.ratio >= 0.4 && p.ratio <= 0.5))
        points );
    ("simple = hybrid at ratio 1.0", cost full "simple" = cost full "hybrid");
  ]

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
  (* Per ratio, (join, measured, model) for each join. *)
  let rows =
    List.map
      (fun ratio ->
        let m = max (JM.min_memory w) (int_of_float (ratio *. rf)) in
        let _env, r, s = build_join_workload ~pages ~seed:7 in
        let models = JM.all_four w ~m in
        let results =
          List.map
            (fun algo ->
              let stats = E.Joiner.run_measured algo ~mem_pages:m ~fudge r s in
              let name = E.Joiner.name algo in
              (name, stats.E.Op_stats.seconds, List.assoc name models))
            E.Joiner.all
        in
        U.Tablefmt.add_row t
          (U.Tablefmt.cell_float ratio :: U.Tablefmt.cell_int m
          :: List.concat_map
               (fun (_, meas, model) ->
                 [ U.Tablefmt.cell_float ~decimals:2 meas;
                   U.Tablefmt.cell_float ~decimals:2 model ])
               results);
        results)
      ratios
  in
  U.Tablefmt.print t;
  Printf.printf
    "\nAbsolute seconds differ (the model charges idealised bulk terms; the \
     executable pays per-page realities), but the orderings and crossovers \
     match: hybrid <= grace everywhere, simple explodes at small |M| and \
     converges to hybrid at 1.0, sort-merge is the flattest and slowest \
     mid-range curve.\n";
  let measured row algo =
    let _, meas, _ = List.find (fun (a, _, _) -> a = algo) row in
    meas
  in
  let each p = List.for_all (List.for_all p) rows in
  [
    ( "measured hybrid <= measured GRACE at every ratio",
      List.for_all (fun row -> measured row "hybrid" <= measured row "grace") rows );
    ( "each hash join within 5% of its model",
      each (fun (a, meas, model) -> a = "sort-merge" || within ~rel:0.05 ~model meas) );
    ( "sort-merge within 10% of its model",
      each (fun (a, meas, model) -> a <> "sort-merge" || within ~rel:0.10 ~model meas) );
  ]

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
  Printf.printf "\nencoded as: %s\n" (Format.asprintf "%a" S.Cost.pp c);
  []

(* ------------------------------------------------------------------ *)
(* E4: Table 3 sensitivity sweep                                       *)
(* ------------------------------------------------------------------ *)

let table3 () =
  section
    "E4 Table 3: sensitivity — qualitative Figure 1 conclusions across the \
     tested parameter ranges";
  let corners =
    let ( let* ) l f = List.concat_map f l in
    let* comp = [ 1e-6; 10e-6 ] in
    let* hash = [ 2e-6; 50e-6 ] in
    let* move = [ 10e-6; 50e-6 ] in
    let* io_seq = [ 5e-3; 10e-3 ] in
    let* fudge = [ 1.0; 1.2; 1.4 ] in
    let* s_pages = [ 10_000; 50_000; 200_000 ] in
    let cost =
      { S.Cost.comp; hash; move; swap = move *. 3.0; io_seq; io_rand = io_seq *. 2.5; fudge }
    in
    [ { JM.r_pages = 10_000; s_pages; r_tuples_per_page = 40; s_tuples_per_page = 40; cost } ]
  in
  (* (hybrid, grace, best, worst) per cost evaluation. *)
  let evals =
    List.concat_map
      (fun w ->
        List.map
          (fun ratio ->
            let m =
              max (JM.min_memory w)
                (int_of_float (ratio *. float_of_int w.JM.r_pages *. w.JM.cost.S.Cost.fudge))
            in
            let costs = JM.all_four w ~m in
            ( List.assoc "hybrid" costs,
              List.assoc "grace" costs,
              List.fold_left (fun a (_, c) -> Float.min a c) infinity costs,
              List.fold_left (fun a (_, c) -> Float.max a c) 0.0 costs ))
          [ 0.05; 0.2; 0.4; 0.7; 1.0 ])
      corners
  in
  let checks = List.length evals in
  let count p = List.length (List.filter p evals) in
  let hybrid_best = count (fun (h, _, best, _) -> h <= best +. 1e-9) in
  let hybrid_near_best = count (fun (h, _, best, _) -> h <= 1.35 *. best) in
  let hybrid_not_worst = count (fun (h, _, _, worst) -> h < worst) in
  let hybrid_beats_grace = count (fun (h, g, _, _) -> h <= g +. 1e-9) in
  let pct x = 100.0 *. float_of_int x /. float_of_int checks in
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
    (List.length corners) hybrid_best checks (pct hybrid_best)
    hybrid_near_best checks (pct hybrid_near_best)
    hybrid_beats_grace checks (pct hybrid_beats_grace)
    hybrid_not_worst checks;
  let all_720 k = checks = 720 && k = 720 in
  [
    ("hybrid <= GRACE in 720/720 evaluations", all_720 hybrid_beats_grace);
    ("hybrid never the worst in 720/720 evaluations", all_720 hybrid_not_worst);
    ("hybrid within 1.35x of the best in 720/720 evaluations", all_720 hybrid_near_best);
  ]

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
  (* (label, (measured, model)) per rung. *)
  let rungs =
    List.map
      (fun (strategy, predicted, n_txns) ->
        let r = R.Tps_sim.run ~nrecords:200_000 ~n_txns strategy in
        U.Tablefmt.add_row t
          [
            r.R.Tps_sim.strategy_label;
            U.Tablefmt.cell_float ~decimals:0 r.R.Tps_sim.tps;
            U.Tablefmt.cell_float ~decimals:0 predicted;
            Printf.sprintf "%.1f ms" (r.R.Tps_sim.latency.U.Stats.p50 *. 1e3);
            Printf.sprintf "%.1f ms" (r.R.Tps_sim.latency.U.Stats.p99 *. 1e3);
          ];
        (r.R.Tps_sim.strategy_label, (r.R.Tps_sim.tps, predicted)))
      cases
  in
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
  let p50s =
    List.map
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
          ];
        r.R.Tps_sim.latency.U.Stats.p50)
      [ 100; 400; 800; 950; 990 ]
  in
  U.Tablefmt.print t;
  Printf.printf
    "\nat light load a commit waits for its group to fill (the batching \
     latency the paper's \"user is not notified until\" wording concedes); \
     near the ceiling queueing dominates.\n";
  [
    ( "every rung within 5% of the model",
      List.for_all (fun (_, (tps, model)) -> within ~rel:0.05 ~model tps) rungs );
    ( "partitioned-4 with 60 accounts below half its low-conflict tps",
      hi.R.Tps_sim.tps < 0.5 *. fst (List.assoc "partitioned-4" rungs) );
    ("p50 latency falls strictly as offered load rises", descending p50s);
  ]

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
  let measured =
    float_of_int stable.R.Recovery_manager.log_disk_bytes
    /. float_of_int group.R.Recovery_manager.log_disk_bytes
  and model = RM.log_compression_ratio RM.gray_banking in
  Printf.printf
    "\nmeasured ratio %.3f; model predicts %.3f (220/400 bytes per \
     transaction) — \"approximately half of the size of the log stores the \
     old values\".\n"
    measured model;
  [ ("measured ratio within 0.01 of the model", Float.abs (measured -. model) <= 0.01) ]

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
  let outcomes =
    List.map
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
          ];
        o)
      [ None; Some 1000; Some 500; Some 250; Some 100 ]
  in
  U.Tablefmt.print t;
  Printf.printf
    "\nmore frequent checkpoints cost pages during normal processing but cut \
     redo work and recovery time, exactly the Section 5.3 trade.\n";
  [
    ( "recovery time falls strictly as checkpoints get more frequent",
      descending
        (List.map
           (fun o -> o.R.Recovery_manager.recover_stats.R.Kv_store.recovery_time)
           outcomes) );
    ( "every row is consistent",
      List.for_all (fun o -> o.R.Recovery_manager.consistent) outcomes );
  ]

(* ------------------------------------------------------------------ *)
(* E8: access planning                                                 *)
(* ------------------------------------------------------------------ *)

let planning () =
  section
    "E8 Section 4: planning a star query with hashing available vs the \
     disk-era sort-merge-only optimizer";
  let db = Mmdb.Db.create ~mem_pages:512 () in
  Mmdb.Db.create_table db ~name:"emp"
    ~schema:(int_schema ~key:"id" [ "id"; "dept"; "salary" ]);
  Mmdb.Db.create_table db ~name:"dept"
    ~schema:(int_schema ~key:"dept_id" [ "dept_id"; "region" ]);
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
  let he = P.Optimizer.estimated_cost hash_plan
  and se = P.Optimizer.estimated_cost sort_plan in
  Printf.printf "estimated cost: hash %.4f s vs sort-only %.4f s\n" he se;
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
    ht hn st sn;
  [
    ("hash plan cheaper than sort-only, estimated and executed", he < se && ht < st);
    ("both plans return 100 rows", hn = 100 && sn = 100);
  ]

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
  (* Per group count: whether a fitting GROUP BY ran in one pass, then the
     five timings. *)
  let rows =
    List.map
      (fun ngroups ->
        let env = S.Env.create () in
        let disk = S.Disk.create ~env ~page_size:4096 in
        let schema = int_schema ~key:"g" [ "g"; "v" ] in
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
        let one_pass =
          time (fun () ->
              E.Aggregate.hybrid ~mem_pages:max_int ~fudge:1.2 ~groups:ngroups
                (E.Aggregate.Relation rel) specs)
        in
        (* Runs [f] at |M| = 8 and clears [ok] unless, when its result
           fits, it hashed each tuple once, read nothing back and wrote
           only its result. *)
        let one_pass_if_fits ok f () =
          let before = S.Counters.snapshot env.S.Env.counters in
          let out = f () in
          let c = S.Counters.diff ~after:env.S.Env.counters ~before in
          let reads = c.S.Counters.seq_reads + c.S.Counters.rand_reads
          and writes = c.S.Counters.seq_writes + c.S.Counters.rand_writes
          and n = S.Relation.ntuples rel and pages = S.Relation.npages out in
          let fits = float_of_int pages *. 1.2 <= 8.0 in
          ok := !ok && ((not fits) || (c.S.Counters.hashes = n && reads = 0 && writes = pages));
          out
        in
        let agg_once = ref true and distinct_once = ref true in
        let hybrid =
          time
            (one_pass_if_fits agg_once (fun () ->
                 E.Aggregate.hybrid ~mem_pages:8 ~fudge:1.2 ~groups:ngroups
                   (E.Aggregate.Relation rel) specs))
        in
        let sort_agg =
          time (fun () -> E.Aggregate.sort_based ~mem_pages:8 rel specs)
        in
        let proj =
          time
            (one_pass_if_fits distinct_once (fun () ->
                 E.Projection.distinct ~mem_pages:8 ~fudge:1.2 ~groups:ngroups ~cols:[ "g" ] rel))
        in
        let sort_proj =
          time (fun () ->
              E.Projection.sort_distinct ~mem_pages:8 ~cols:[ "g" ] rel)
        in
        U.Tablefmt.add_row t
          (U.Tablefmt.cell_int ngroups
          :: List.map (U.Tablefmt.cell_float ~decimals:3)
               [ one_pass; hybrid; sort_agg; proj; sort_proj ]);
        ((!agg_once, !distinct_once), (one_pass, hybrid, sort_agg), (proj, sort_proj)))
      [ 10; 1000; 40000 ]
  in
  U.Tablefmt.print t;
  Printf.printf
    "\none-pass hashing wins whenever the result fits (\"who would ever want \
     to read even a 4 million byte report\"): at |M| = 8 pages the hybrid \
     variant reads its input once and writes no partition page whenever its \
     groups fit (10 and 1,000 groups), and even spilling (40,000 groups) it \
     beats the sort-based baseline, which pays the full n log n (comp+swap) \
     plus run I/O — Section 3.9's recommendation.\n";
  [
    ( "a GROUP BY whose groups fit |M| reads its input once and writes no \
       partition page",
      List.for_all (fun ((ok, _), _, _) -> ok) rows );
    ( "a DISTINCT whose values fit |M| reads its input once and writes no \
       partition page",
      List.for_all (fun ((_, ok), _, _) -> ok) rows );
    ( "hash beats sort for GROUP BY at every group count",
      List.for_all (fun (_, (one, hy, sort), _) -> one < sort && hy < sort) rows );
    ( "hash beats sort for DISTINCT at every group count",
      List.for_all (fun (_, _, (hash, sort)) -> hash < sort) rows );
  ]

(* ------------------------------------------------------------------ *)
(* Ablations (DESIGN.md)                                               *)
(* ------------------------------------------------------------------ *)

let ablations () =
  section "Ablation 1: buffer replacement policy vs the Section 2 fault model";
  let n = 20_000 in
  let env = S.Env.create () in
  let avl = I.Avl.create ~env ~schema:access_schema () in
  let rng = U.Xorshift.create 17 in
  Array.iter (fun k -> I.Avl.insert avl (access_tuple k)) (shuffled_keys rng n);
  let nodes_per_page = 4096 / 48 in
  let pages = (I.Avl.node_count avl + nodes_per_page - 1) / nodes_per_page in
  let h = 0.5 in
  let t = U.Tablefmt.create [ "policy"; "faults/lookup"; "model (random)" ] in
  let c_model = (Float.log2 (float_of_int n) +. 0.25) *. (1.0 -. h) in
  let faults =
    List.map
      (fun (name, policy) ->
        let d =
          probe_pool env rng ~n ~probes:3000
            ~cap:(int_of_float (h *. float_of_int pages))
            ~policy ~nodes_per_page (Avl avl)
        in
        let per_lookup = float_of_int d.S.Counters.faults /. 3000.0 in
        U.Tablefmt.add_row t
          [ name; U.Tablefmt.cell_float per_lookup; U.Tablefmt.cell_float c_model ];
        (name, per_lookup))
      [
        ("random", S.Buffer_pool.Random_replacement (U.Xorshift.create 23));
        ("lru", S.Buffer_pool.Lru);
        ("clock", S.Buffer_pool.Clock);
        ("fifo", S.Buffer_pool.Fifo);
        ("lru-2", S.Buffer_pool.Lru_2);
      ]
  in
  U.Tablefmt.print t;

  section
    "Ablation 2: TID-key pairs vs whole tuples in the hash table (Section \
     3.2) — smaller moves vs random fetches on output";
  let w = JM.table2_workload in
  let m = 6000 in
  let t = U.Tablefmt.create [ "join output tuples"; "whole tuples (s)"; "TID-key pairs (s)" ] in
  let tid_rows =
    List.map
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
          ];
        (output, whole, tid))
      [ 0; 1000; 10_000; 100_000; 1_000_000 ]
  in
  U.Tablefmt.print t;
  Printf.printf
    "\"the cost of the random accesses to retrieve the tuples can exceed the \
     savings of using TIDs if the join produces a large number of tuples\".\n";

  section "Ablation 3: the hybrid-hash seam at |M| = |R|F/2 in detail";
  let t = U.Tablefmt.create [ "ratio"; "|M|"; "B"; "q"; "write mode"; "hybrid (s)" ] in
  let seam =
    List.map
      (fun ratio ->
        let m = int_of_float (ratio *. 12_000.0) in
        let b = JM.hybrid_partitions w ~m in
        let mode = if b <= 1 then "IOseq" else "IOrand" in
        U.Tablefmt.add_row t
          [
            U.Tablefmt.cell_float ~decimals:3 ratio;
            U.Tablefmt.cell_int m;
            U.Tablefmt.cell_int b;
            U.Tablefmt.cell_float (JM.hybrid_q w ~m);
            mode;
            U.Tablefmt.cell_float ~decimals:1 (JM.hybrid_hash w ~m);
          ];
        (ratio, b, mode))
      [ 0.44; 0.46; 0.48; 0.499; 0.5; 0.501; 0.52; 0.56 ]
  in
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
    let tps = float_of_int n /. R.Wal.flush wal ~at:0.0 in
    U.Tablefmt.add_row t
      [
        name;
        U.Tablefmt.cell_int page_bytes;
        Printf.sprintf "%.0f ms" (page_write_time *. 1e3);
        U.Tablefmt.cell_float ~decimals:0 tps;
      ];
    tps
  in
  (* A track holds ~8 pages and writes in ~25ms (one rotation) instead of
     8 x 10ms. *)
  let page_tps = run_unit "page (4 KiB, 10 ms)" 4096 10e-3 in
  let track_tps = run_unit "track (32 KiB, 25 ms)" 32768 25e-3 in
  U.Tablefmt.print t;
  let f policy = List.assoc policy faults in
  [
    ( "faults per lookup order fifo > clock > lru",
      f "fifo" > f "clock" && f "clock" > f "lru" );
    ( "TID-key pairs win at 0 output tuples and lose from 1,000 up",
      List.for_all
        (fun (output, whole, tid) -> (tid < whole) = (output = 0))
        tid_rows );
    ( "the hybrid seam has B = 2 and IOrand at ratio <= 0.5, B = 1 and IOseq above",
      List.for_all
        (fun (ratio, b, mode) ->
          if ratio <= 0.5 then b = 2 && mode = "IOrand" else b = 1 && mode = "IOseq")
        seam );
    ("track tps > 2 x page tps", track_tps > 2.0 *. page_tps);
  ]

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
  let rows =
    List.map
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
          ];
        (ratio, vm_time, hy_time))
      [ 0.1; 0.25; 0.5; 0.75; 1.0; 1.5 ]
  in
  U.Tablefmt.print t;
  Printf.printf
    "\nBelow ratio 1.0, VM pays a random fault on a large fraction of table \
     touches (~2 per tuple) while hybrid does bounded sequential partition \
     I/O: explicit partitioning wins by an order of magnitude, converging \
     once everything fits — the implicit answer behind Section 3's design.\n";
  [
    ( "hybrid faster than VM hash at every ratio below 1.0",
      List.for_all (fun (ratio, vm, hy) -> ratio >= 1.0 || hy < vm) rows );
  ]

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
  let results =
    List.map
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
          ];
        r)
      [ R.Mvcc_sim.Locking; R.Mvcc_sim.Versioning ]
  in
  U.Tablefmt.print t;
  Printf.printf
    "\nA scanning reader every 2 s holding its lock for 1 s stalls half of \
     all updates under locking; under versioning writers never wait and the \
     reader's two-phase snapshot read stays zero-sum while writes proceed \
     beneath it.  The cost is the version-chain space, pruned at reader \
     completion.\n";
  let p99 = List.map (fun r -> r.R.Mvcc_sim.writer_p99_latency) results in
  [
    ( "both schemes are consistent",
      List.for_all (fun r -> r.R.Mvcc_sim.snapshots_consistent) results );
    ("versioning's writer p99 below locking's", descending p99);
  ]

(* ------------------------------------------------------------------ *)
(* E12: B+-tree occupancy (bulk load vs Yao's 69%)                     *)
(* ------------------------------------------------------------------ *)

let bulk_load_bench () =
  section
    "E12 occupancy ablation: Yao's 69% (random insertion, assumed by the \
     Section 2 model) vs a 100% bulk-loaded B+-tree";
  let schema = access_schema in
  let n = 30_000 in
  let env = S.Env.create () in
  let sorted = List.init n access_tuple in
  let incremental =
    let t = I.Btree.create ~env ~schema ~page_size:4096 () in
    Array.iter
      (fun k -> I.Btree.insert t (access_tuple k))
      (shuffled_keys (U.Xorshift.create 3) n);
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
  let d = AM.btree_leaf_pages { AM.default with AM.r_tuples = n } in
  Printf.printf
    "\nmodel D (leaves at 69%%) = %d; random insertion and 69%% bulk load \
     agree with it, while a packed bulk load saves ~31%% of the pages — \
     shrinking S' and, with it, the memory needed before the AVL tree \
     catches up.\n"
    d;
  let leaves tree = float_of_int (I.Btree.leaf_count tree) in
  let d = float_of_int d in
  [
    ( "both 69% builds within 1% of D leaves",
      within ~rel:0.01 ~model:d (leaves incremental)
      && within ~rel:0.01 ~model:d (leaves bulk_yao) );
    ("the packed build has <= 0.72 x D leaves", leaves bulk_full <= 0.72 *. d);
  ]

(* ------------------------------------------------------------------ *)
(* Bechamel microbenchmarks                                            *)
(* ------------------------------------------------------------------ *)

let bechamel_suite () =
  section "Bechamel wall-clock microbenchmarks of the hot operators";
  let module Bt = Bechamel.Test in
  let module Bs = Bechamel.Staged in
  let schema = int_schema ~key:"k" [ "k"; "v" ] in
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
(* Machine-readable outputs: the golden Table 1 / Figure 1            *)
(* regeneration diffed under `dune runtest`                           *)
(* ------------------------------------------------------------------ *)

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

let write_json path doc =
  let oc = open_out path in
  output_string oc doc;
  output_char oc '\n';
  close_out oc

(* Canonical Table 1 + Figure 1 regeneration.  Printed to stdout; a dune
   rule captures it and diffs against bench/golden/table1_figure1.json so
   CI catches any drift in the analytic model (`dune promote` accepts an
   intentional change).  Its claims are `table1`'s and `figure1`'s. *)
let golden_json () =
  let table1_rows =
    List.map
      (fun (z, row) ->
        jobj
          [
            ("z", jfloat z);
            ( "cells",
              jlist
                (List.map (fun (y, h) -> jobj [ ("y", jfloat y); ("h", jfloat h) ]) row) );
          ])
      (table1_cells ())
  in
  let figure1_rows =
    List.map
      (fun p ->
        jobj
          ([ ("ratio", jfloat p.ratio); ("mem_pages", string_of_int p.m) ]
          @ List.map (fun (name, c) -> (name, jfloat c)) p.costs
          @ [
              ("hybrid_partitions", string_of_int p.b);
              ("hybrid_q", jfloat p.q);
              ("simple_passes", string_of_int p.passes);
            ]))
      (figure1_points ())
  in
  let part description rows =
    jobj [ ("description", jstr description); ("rows", jlist rows) ]
  in
  print_endline
    (jobj
       [
         ("table1", part "fraction H resident for AVL to win" table1_rows);
         ("figure1", part "analytic join costs (s), |R|=|S|=10000 pages" figure1_rows);
       ]);
  []

(* Recovery-time-vs-workers ladder (a persistent perf trajectory): one
   crash-recovery run per (workers x logging mode) cell of a fixed seeded
   workload, emitting the modelled recovery time and the replay work
   breakdown.  `dune runtest` regenerates the file and diffs it against
   the committed copy. *)
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
          };
      }
    in
    let o = R.Recovery_manager.run cfg in
    let st = o.R.Recovery_manager.recover_stats in
    ( o.R.Recovery_manager.consistent && o.R.Recovery_manager.money_conserved,
      st.R.Kv_store.recovery_time,
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
          ("pages_written_back", string_of_int st.R.Kv_store.pages_written_back);
          ("log_bytes_scanned", string_of_int st.R.Kv_store.log_bytes_scanned);
          ("log_disk_bytes", string_of_int o.R.Recovery_manager.log_disk_bytes);
          ("command_txns", string_of_int o.R.Recovery_manager.command_txns);
        ] )
  in
  let ladders =
    List.map
      (fun (mode, label) -> List.map (fun workers -> cell ~workers ~mode ~label) [ 1; 2; 4; 8 ])
      [
        (R.Recovery_manager.Value_logging, "value");
        (R.Recovery_manager.Command_logging, "command");
        (R.Recovery_manager.Adaptive_logging, "adaptive");
      ]
  in
  let cells = List.concat ladders in
  write_json "BENCH_recovery.json"
    (jobj
       [
         ("schema", jstr "mmdb.bench.recovery.v1");
         ( "workload",
           jstr
             "500 accounts, 20 records/page, 6 updates/txn, 2000 txns, \
              checkpoint every 500, crash after 1999, seed 7" );
         ("rows", jlist (List.map (fun (_, _, row) -> row) cells));
       ]);
  Printf.printf
    "wrote BENCH_recovery.json (%d cells: workers 1/2/4/8 x \
     value/command/adaptive)\n"
    (List.length cells);
  [
    ( "every cell is consistent and conserves money",
      List.for_all (fun (ok, _, _) -> ok) cells );
    ( "value-logged recovery time falls strictly over 1, 2, 4, 8 workers",
      descending (List.map (fun (_, time, _) -> time) (List.hd ladders)) );
  ]

(* Overload-resilience curves: four open-loop cells over the same seeded
   Poisson arrival process — a calm protected baseline, the protected
   service under a 10x spike (with and without a transient-fault storm),
   and the unprotected control (no admission, no in-service deadline
   aborts) under the same assault.  The claims are the acceptance bar:
   protected goodput under spike + storm stays >= 50% of the calm
   baseline while the unprotected service collapses below 50%.
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
        OS.protected;
      }
    in
    let o = OS.run cfg in
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
          ("admission", string_of_bool protected);
          ("deadlines_enforced", string_of_bool protected);
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
          ("shed_codes", jobj (List.map (fun (c, n) -> (c, string_of_int n)) o.OS.shed_codes));
          ("breaker_trips", string_of_int o.OS.breaker_trips);
          ("breaker_reopens", string_of_int o.OS.breaker_reopens);
          ("breaker_final", jstr o.OS.breaker_final);
          ("buckets", jlist (List.map bucket o.OS.buckets));
        ]
    in
    (o, row)
  in
  let base, jbase = cell ~label:"baseline" ~spike:false ~storm:false ~protected:true in
  let spike, jspike = cell ~label:"protected-spike" ~spike:true ~storm:false ~protected:true in
  let prot, jprot = cell ~label:"protected-spike-storm" ~spike:true ~storm:true ~protected:true in
  let unprot, junprot =
    cell ~label:"unprotected-spike-storm" ~spike:true ~storm:true ~protected:false
  in
  let ratio o = o.OS.goodput_tps /. base.OS.goodput_tps in
  write_json "BENCH_overload.json"
    (jobj
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
       ]);
  Printf.printf
    "wrote BENCH_overload.json (baseline %.0f tps; protected spike+storm \
     %.0f tps = %.2fx; unprotected %.0f tps = %.2fx)\n"
    base.OS.goodput_tps prot.OS.goodput_tps (ratio prot)
    unprot.OS.goodput_tps (ratio unprot);
  [
    ( "every cell conserves money",
      List.for_all (fun o -> o.OS.money_conserved) [ base; spike; prot; unprot ] );
    ("protected goodput >= 0.5 x baseline", ratio prot >= 0.5);
    ("unprotected goodput < 0.5 x baseline", ratio unprot < 0.5);
    ("the breaker trips at least once", prot.OS.breaker_trips >= 1);
  ]

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

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
    ("golden-json", "Table 1 + Figure 1 as canonical JSON (CI golden)", golden_json);
    ("recovery-json", "write BENCH_recovery.json (parallel-replay ladder)", recovery_json);
    ("overload-json", "write BENCH_overload.json (overload-resilience curves)", overload_json);
  ]

(* Runs one experiment; reports each of its claims that is false. *)
let holds (id, _, run) =
  let failed = List.filter (fun (_, ok) -> not ok) (run ()) in
  List.iter
    (fun (name, _) -> Printf.eprintf "claim failed: %s: %s\n" id name)
    failed;
  failed = []

let usage () =
  print_endline "usage: main.exe [-e EXPERIMENT] [--list] [--bechamel]";
  print_endline
    "each experiment checks the paper's claims about its rows; a false claim \
     prints `claim failed: ID: NAME` on stderr and exits 1";
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
    | Some e -> if not (holds e) then exit 1
    | None ->
      Printf.printf "unknown experiment %S\n\n" id;
      usage ();
      exit 1)
  | [ _ ] ->
    print_endline
      "mmdb benchmark harness - reproducing DeWitt et al., SIGMOD 1984";
    if List.filter (fun e -> not (holds e)) experiments <> [] then exit 1
  | _ ->
    usage ();
    exit 1
