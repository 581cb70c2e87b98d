(* Tests for Mmdb_index: AVL tree, B+-tree, pager fault accounting.
   Both trees are checked model-based against Stdlib.Map over random
   operation sequences, plus structural invariants after every batch. *)

module S = Mmdb_storage
module U = Mmdb_util
module I = Mmdb_index

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let schema () =
  S.Schema.create ~key:"k"
    [ S.Schema.column "k" S.Schema.Int; S.Schema.column "v" S.Schema.Int ]

let mk sch k v = S.Tuple.encode sch [ S.Tuple.VInt k; S.Tuple.VInt v ]
let key sch k = S.Tuple.encode_int_key sch k
let val_of sch tup = S.Tuple.get_int sch tup 1
let key_of sch tup = S.Tuple.get_int sch tup 0

module IntMap = Map.Make (Int)

(* Generic battery run against any index with the common signature. *)
type ops = {
  insert : bytes -> unit;
  search : bytes -> bytes option;
  length : unit -> int;
  check : unit -> bool;
  iter : (bytes -> unit) -> unit;
}

let avl_ops t =
  {
    insert = I.Avl.insert t;
    search = I.Avl.search t;
    length = (fun () -> I.Avl.length t);
    check = (fun () -> I.Avl.check_invariants t);
    iter = (fun f -> I.Avl.iter_in_order t f);
  }

let btree_ops t =
  {
    insert = I.Btree.insert t;
    search = I.Btree.search t;
    length = (fun () -> I.Btree.length t);
    check = (fun () -> I.Btree.check_invariants t);
    iter = (fun f -> I.Btree.iter_in_order t f);
  }

let fresh_avl () =
  let env = S.Env.create () in
  I.Avl.create ~env ~schema:(schema ()) ()

let fresh_btree ?(page_size = 256) () =
  let env = S.Env.create () in
  I.Btree.create ~env ~schema:(schema ()) ~page_size ()

(* Model-based random-operation test. *)
let model_test make_ops n_ops seed () =
  let sch = schema () in
  let ops = make_ops () in
  let rng = U.Xorshift.create seed in
  let model = ref IntMap.empty in
  for step = 1 to n_ops do
    let k = U.Xorshift.int rng 200 in
    let action = U.Xorshift.int rng 3 in
    (match action with
    | 0 | 1 ->
      let v = U.Xorshift.int rng 1_000_000 in
      ops.insert (mk sch k v);
      model := IntMap.add k v !model
    | _ ->
      let found = Option.map (val_of sch) (ops.search (key sch k)) in
      checkb (Printf.sprintf "step %d search %d" step k) true
        (found = IntMap.find_opt k !model));
    if step mod 50 = 0 then begin
      checkb (Printf.sprintf "invariants at step %d" step) true (ops.check ());
      checki
        (Printf.sprintf "length at step %d" step)
        (IntMap.cardinal !model) (ops.length ())
    end
  done;
  (* Final full comparison: every model key searchable with right value,
     in-order iteration equals sorted model. *)
  checkb "final invariants" true (ops.check ());
  IntMap.iter
    (fun k v ->
      match ops.search (key sch k) with
      | Some tup -> checki (Printf.sprintf "value of %d" k) v (val_of sch tup)
      | None -> Alcotest.fail (Printf.sprintf "key %d missing" k))
    !model;
  for k = 0 to 199 do
    if not (IntMap.mem k !model) then
      checkb
        (Printf.sprintf "absent key %d" k)
        true
        (ops.search (key sch k) = None)
  done;
  let seen = ref [] in
  ops.iter (fun tup -> seen := key_of sch tup :: !seen);
  Alcotest.(check (list int))
    "in-order equals model"
    (List.map fst (IntMap.bindings !model))
    (List.rev !seen)

(* ------------------------------------------------------------------ *)
(* AVL specifics                                                       *)
(* ------------------------------------------------------------------ *)

let test_avl_empty () =
  let t = fresh_avl () in
  let sch = schema () in
  checki "length" 0 (I.Avl.length t);
  checki "height" 0 (I.Avl.height t);
  checkb "search misses" true (I.Avl.search t (key sch 1) = None);
  checkb "invariants" true (I.Avl.check_invariants t)

let test_avl_height_bound () =
  let t = fresh_avl () in
  let sch = schema () in
  (* Sorted insertion is the adversarial case for unbalanced trees. *)
  let n = 2048 in
  for i = 1 to n do
    I.Avl.insert t (mk sch i i)
  done;
  let h = I.Avl.height t in
  let bound =
    (* 1.4405 log2(n+2) - 0.3277 *)
    int_of_float (Float.ceil ((1.4405 *. Float.log2 (float_of_int (n + 2))) -. 0.3277))
  in
  checkb (Printf.sprintf "height %d <= %d" h bound) true (h <= bound);
  checkb "invariants after sorted inserts" true (I.Avl.check_invariants t)

let test_avl_duplicate_replaces () =
  let t = fresh_avl () in
  let sch = schema () in
  I.Avl.insert t (mk sch 5 1);
  I.Avl.insert t (mk sch 5 2);
  checki "length 1" 1 (I.Avl.length t);
  match I.Avl.search t (key sch 5) with
  | Some tup -> checki "replaced" 2 (val_of sch tup)
  | None -> Alcotest.fail "missing"

let test_avl_range_scan () =
  let t = fresh_avl () in
  let sch = schema () in
  for k = 1 to 20 do
    I.Avl.insert t (mk sch k k)
  done;
  let acc = ref [] in
  I.Avl.range_scan t ~lo:(key sch 5) ~hi:(key sch 9) (fun tup ->
      acc := key_of sch tup :: !acc);
  Alcotest.(check (list int)) "range [5,9]" [ 5; 6; 7; 8; 9 ] (List.rev !acc)

let test_avl_comparison_count_logarithmic () =
  let env = S.Env.create () in
  let sch = schema () in
  let t = I.Avl.create ~env ~schema:sch () in
  let n = 4096 in
  let rng = U.Xorshift.create 5 in
  let keys = Array.init n (fun i -> i) in
  U.Xorshift.shuffle rng keys;
  Array.iter (fun k -> I.Avl.insert t (mk sch k k)) keys;
  let before = env.S.Env.counters.S.Counters.comparisons in
  let probes = 500 in
  for _ = 1 to probes do
    ignore (I.Avl.search t (key sch (U.Xorshift.int rng n)))
  done;
  let per_probe =
    float_of_int (env.S.Env.counters.S.Counters.comparisons - before)
    /. float_of_int probes
  in
  (* Paper: about log2 |R| + 0.25 comparisons. *)
  let expected = Float.log2 (float_of_int n) +. 0.25 in
  checkb
    (Printf.sprintf "%.2f comps/probe within 20%% of %.2f" per_probe expected)
    true
    (Float.abs (per_probe -. expected) < 0.2 *. expected)

(* ------------------------------------------------------------------ *)
(* B+-tree specifics                                                   *)
(* ------------------------------------------------------------------ *)

let test_btree_empty () =
  let t = fresh_btree () in
  let sch = schema () in
  checki "length" 0 (I.Btree.length t);
  checki "height" 1 (I.Btree.height t);
  checkb "search misses" true (I.Btree.search t (key sch 1) = None);
  checkb "invariants" true (I.Btree.check_invariants t)

let test_btree_capacities () =
  let t = fresh_btree ~page_size:4096 () in
  (* K=8, s=4: fanout = 4096/12 = 341. tuple width 16: lcap = 4094/16 = 255. *)
  checki "fanout" 341 (I.Btree.fanout t);
  checki "leaf capacity" 255 (I.Btree.leaf_capacity t)

let test_btree_split_grows_height () =
  let t = fresh_btree ~page_size:64 () in
  let sch = schema () in
  (* lcap = 62/16 = 3; inserting 4 forces a split. *)
  for k = 1 to 4 do
    I.Btree.insert t (mk sch k k)
  done;
  checki "height 2" 2 (I.Btree.height t);
  checkb "invariants" true (I.Btree.check_invariants t);
  checki "all present" 4 (I.Btree.length t)

let test_btree_sorted_bulk () =
  let t = fresh_btree ~page_size:128 () in
  let sch = schema () in
  let n = 1000 in
  for k = 1 to n do
    I.Btree.insert t (mk sch k k)
  done;
  checkb "invariants" true (I.Btree.check_invariants t);
  checki "length" n (I.Btree.length t);
  (* Every key findable. *)
  for k = 1 to n do
    match I.Btree.search t (key sch k) with
    | Some tup -> checki "value" k (val_of sch tup)
    | None -> Alcotest.fail (Printf.sprintf "missing %d" k)
  done

let test_btree_scan_crosses_leaves () =
  let t = fresh_btree ~page_size:64 () in
  let sch = schema () in
  for k = 1 to 50 do
    I.Btree.insert t (mk sch (k * 2) k)
  done;
  (* Keys 2,4,...,100 at three per leaf; [51, 60] spans two leaves. *)
  let acc = ref [] in
  I.Btree.range_scan t ~lo:(key sch 51) ~hi:(key sch 60) (fun tup ->
      acc := key_of sch tup :: !acc);
  Alcotest.(check (list int)) "scan" [ 52; 54; 56; 58; 60 ] (List.rev !acc)

let test_btree_range_scan () =
  let t = fresh_btree ~page_size:64 () in
  let sch = schema () in
  for k = 1 to 40 do
    I.Btree.insert t (mk sch k k)
  done;
  let acc = ref [] in
  I.Btree.range_scan t ~lo:(key sch 10) ~hi:(key sch 15) (fun tup ->
      acc := key_of sch tup :: !acc);
  Alcotest.(check (list int)) "range" [ 10; 11; 12; 13; 14; 15 ] (List.rev !acc)

let test_btree_random_load_occupancy () =
  let t = fresh_btree ~page_size:128 () in
  let sch = schema () in
  let rng = U.Xorshift.create 21 in
  let keys = Array.init 5000 (fun i -> i) in
  U.Xorshift.shuffle rng keys;
  Array.iter (fun k -> I.Btree.insert t (mk sch k k)) keys;
  let occ = I.Btree.avg_leaf_occupancy t in
  (* Yao: ~69% for random insertion (we accept a broad band). *)
  checkb (Printf.sprintf "occupancy %.2f in [0.6, 0.8]" occ) true
    (occ >= 0.60 && occ <= 0.80);
  checkb "invariants" true (I.Btree.check_invariants t)

let test_btree_comparison_count_logarithmic () =
  let env = S.Env.create () in
  let sch = schema () in
  let t = I.Btree.create ~env ~schema:sch ~page_size:256 () in
  let n = 4096 in
  let rng = U.Xorshift.create 5 in
  let keys = Array.init n (fun i -> i) in
  U.Xorshift.shuffle rng keys;
  Array.iter (fun k -> I.Btree.insert t (mk sch k k)) keys;
  let before = env.S.Env.counters.S.Counters.comparisons in
  let probes = 500 in
  for _ = 1 to probes do
    ignore (I.Btree.search t (key sch (U.Xorshift.int rng n)))
  done;
  let per_probe =
    float_of_int (env.S.Env.counters.S.Counters.comparisons - before)
    /. float_of_int probes
  in
  (* Paper: C' = ceil(log2 ||R||) comparisons, binary search adds O(1). *)
  let expected = Float.log2 (float_of_int n) in
  checkb
    (Printf.sprintf "%.2f comps/probe within 35%% of %.2f" per_probe expected)
    true
    (Float.abs (per_probe -. expected) < 0.35 *. expected)

(* ------------------------------------------------------------------ *)
(* Pager                                                               *)
(* ------------------------------------------------------------------ *)

let test_pager_no_faults_when_everything_fits () =
  let env = S.Env.create () in
  let sch = schema () in
  let disk = S.Disk.create ~env ~page_size:4096 in
  let t = I.Avl.create ~env ~schema:sch () in
  for k = 1 to 500 do
    I.Avl.insert t (mk sch k k)
  done;
  let pager =
    I.Pager.create ~disk ~pool_capacity:10_000
      ~policy:S.Buffer_pool.Lru ~nodes_per_page:10
  in
  I.Pager.attach_avl pager t;
  (* Warm: touch all pages once. *)
  I.Avl.iter_in_order t (fun _ -> ());
  let rng = U.Xorshift.create 3 in
  for _ = 1 to 200 do
    ignore (I.Avl.search t (key sch (1 + U.Xorshift.int rng 500)))
  done;
  let cold_faults = env.S.Env.counters.S.Counters.faults in
  (* All pages now resident; more searches fault nothing. *)
  for _ = 1 to 200 do
    ignore (I.Avl.search t (key sch (1 + U.Xorshift.int rng 500)))
  done;
  checki "no new faults" cold_faults env.S.Env.counters.S.Counters.faults

let test_pager_faults_under_pressure () =
  let env = S.Env.create () in
  let sch = schema () in
  let disk = S.Disk.create ~env ~page_size:4096 in
  let t = I.Avl.create ~env ~schema:sch () in
  for k = 1 to 2000 do
    I.Avl.insert t (mk sch k k)
  done;
  let rng_pol = U.Xorshift.create 17 in
  let pager =
    I.Pager.create ~disk ~pool_capacity:5
      ~policy:(S.Buffer_pool.Random_replacement rng_pol) ~nodes_per_page:10
  in
  I.Pager.attach_avl pager t;
  let before = env.S.Env.counters.S.Counters.faults in
  let rng = U.Xorshift.create 23 in
  for _ = 1 to 200 do
    ignore (I.Avl.search t (key sch (1 + U.Xorshift.int rng 2000)))
  done;
  checkb "faults occur under pressure" true
    (env.S.Env.counters.S.Counters.faults - before > 200)

let test_pager_btree_one_node_per_page () =
  let env = S.Env.create () in
  let sch = schema () in
  let disk = S.Disk.create ~env ~page_size:4096 in
  let t = I.Btree.create ~env ~schema:sch ~page_size:128 () in
  for k = 1 to 500 do
    I.Btree.insert t (mk sch k k)
  done;
  let pager =
    I.Pager.create ~disk ~pool_capacity:10_000 ~policy:S.Buffer_pool.Lru
      ~nodes_per_page:1
  in
  I.Pager.attach_btree pager t;
  let rng = U.Xorshift.create 29 in
  for _ = 1 to 300 do
    ignore (I.Btree.search t (key sch (1 + U.Xorshift.int rng 500)))
  done;
  (* Touched pages should be bounded by the number of live nodes. *)
  checkb "pages <= nodes" true
    (I.Pager.pages_touched pager <= I.Btree.node_count t)

(* ------------------------------------------------------------------ *)
(* QCheck cross-structure equivalence                                  *)
(* ------------------------------------------------------------------ *)

let qcheck_avl_btree_agree =
  QCheck.Test.make ~name:"AVL and B+-tree agree on any op sequence" ~count:60
    QCheck.(list (pair (int_range 0 100) (int_range 0 1000)))
    (fun ops_list ->
      let sch = schema () in
      let avl = fresh_avl () in
      let bt = fresh_btree ~page_size:64 () in
      let probes_agree =
        List.for_all
          (fun (k, v) ->
            if v mod 4 = 0 then I.Avl.search avl (key sch k) = I.Btree.search bt (key sch k)
            else begin
              I.Avl.insert avl (mk sch k v);
              I.Btree.insert bt (mk sch k v);
              true
            end)
          ops_list
      in
      let dump_avl = ref [] and dump_bt = ref [] in
      I.Avl.iter_in_order avl (fun t -> dump_avl := (key_of sch t, val_of sch t) :: !dump_avl);
      I.Btree.iter_in_order bt (fun t -> dump_bt := (key_of sch t, val_of sch t) :: !dump_bt);
      probes_agree
      && !dump_avl = !dump_bt
      && I.Avl.check_invariants avl
      && I.Btree.check_invariants bt)

let () =
  Alcotest.run "mmdb_index"
    [
      ( "avl",
        [
          Alcotest.test_case "empty" `Quick test_avl_empty;
          Alcotest.test_case "model-based ops" `Quick
            (model_test (fun () -> avl_ops (fresh_avl ())) 2000 101);
          Alcotest.test_case "height bound" `Quick test_avl_height_bound;
          Alcotest.test_case "duplicate replaces" `Quick
            test_avl_duplicate_replaces;
          Alcotest.test_case "range_scan" `Quick test_avl_range_scan;
          Alcotest.test_case "comparisons ~ log2 n" `Quick
            test_avl_comparison_count_logarithmic;
        ] );
      ( "btree",
        [
          Alcotest.test_case "empty" `Quick test_btree_empty;
          Alcotest.test_case "capacities" `Quick test_btree_capacities;
          Alcotest.test_case "model-based ops" `Quick
            (model_test (fun () -> btree_ops (fresh_btree ~page_size:64 ())) 2000 202);
          Alcotest.test_case "model-based ops (larger pages)" `Quick
            (model_test (fun () -> btree_ops (fresh_btree ~page_size:256 ())) 2000 303);
          Alcotest.test_case "split grows height" `Quick
            test_btree_split_grows_height;
          Alcotest.test_case "sorted bulk" `Quick test_btree_sorted_bulk;
          Alcotest.test_case "scan crosses leaves" `Quick
            test_btree_scan_crosses_leaves;
          Alcotest.test_case "range_scan" `Quick test_btree_range_scan;
          Alcotest.test_case "occupancy ~69%" `Quick
            test_btree_random_load_occupancy;
          Alcotest.test_case "comparisons ~ log2 n" `Quick
            test_btree_comparison_count_logarithmic;
        ] );
      ( "pager",
        [
          Alcotest.test_case "no faults when resident" `Quick
            test_pager_no_faults_when_everything_fits;
          Alcotest.test_case "faults under pressure" `Quick
            test_pager_faults_under_pressure;
          Alcotest.test_case "btree node pages" `Quick
            test_pager_btree_one_node_per_page;
        ] );
      ( "equivalence",
        [ QCheck_alcotest.to_alcotest qcheck_avl_btree_agree ] );
    ]
