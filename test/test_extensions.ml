(* Tests for the extensions beyond the paper's headline results: the §5.2
   log-fragment merge, transaction aborts, the §6 future-work items
   (virtual-memory hash join, versioning/MVCC, extra buffer policies),
   B+-tree bulk loading, and hash-based set operations. *)

module S = Mmdb_storage
module U = Mmdb_util
module I = Mmdb_index
module E = Mmdb_exec
module R = Mmdb_recovery
module M = Mmdb

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

(* ------------------------------------------------------------------ *)
(* Log_merge                                                           *)
(* ------------------------------------------------------------------ *)

let rec_ i = R.Log_record.Begin { txn = i; lsn = i }
let lsns rs = List.map R.Log_record.lsn rs

let test_log_merge_interleaves_by_timestamp () =
  let frag_a = [ (0.010, [ rec_ 1; rec_ 2 ]); (0.030, [ rec_ 5 ]) ] in
  let frag_b = [ (0.020, [ rec_ 3; rec_ 4 ]) ] in
  Alcotest.(check (list int))
    "forward order" [ 1; 2; 3; 4; 5 ]
    (lsns (R.Log_merge.merge [ frag_a; frag_b ]))

let test_log_merge_tie_break_by_lsn () =
  let frag_a = [ (0.010, [ rec_ 3 ]) ] in
  let frag_b = [ (0.010, [ rec_ 1 ]) ] in
  Alcotest.(check (list int))
    "equal timestamps ordered by min lsn" [ 1; 3 ]
    (lsns (R.Log_merge.merge [ frag_a; frag_b ]))

let test_log_merge_empty () =
  checki "no fragments" 0 (List.length (R.Log_merge.merge []));
  checki "empty fragments" 0 (List.length (R.Log_merge.merge [ []; [] ]))

let test_log_merge_tie_break_fragment_order () =
  (* Equal timestamps and no LSN evidence (one page holds no records):
     fragment position decides, so the order is a pure function of the
     input and two runs of recovery see the same merged log. *)
  let frag_a = [ (0.010, []) ] in
  let frag_b = [ (0.010, [ rec_ 7 ]) ] in
  Alcotest.(check (list int))
    "a-then-b layout" [ 7 ]
    (lsns (R.Log_merge.merge [ frag_a; frag_b ]));
  Alcotest.(check (list int))
    "b-then-a layout" [ 7 ]
    (lsns (R.Log_merge.merge [ frag_b; frag_a ]));
  (* Fully tied non-empty pages: lower fragment index drains first. *)
  let tied_a = [ (0.010, [ rec_ 4 ]) ] in
  let tied_b = [ (0.010, [ rec_ 4 ]) ] in
  Alcotest.(check (list int))
    "tied pages keep fragment order" [ 4; 4 ]
    (lsns (R.Log_merge.merge [ tied_a; tied_b ]))

let test_wal_partitioned_merge_preserves_conflict_order () =
  (* Dependent transactions' records must appear after their dependency's
     in the merged durable log, whatever the device layout. *)
  let clock = S.Sim_clock.create () in
  let wal = R.Wal.create ~clock (R.Wal.Partitioned { devices = 3 }) in
  let commit ~txn ~deps =
    ignore
      (R.Wal.commit_txn wal ~at:0.0 ~txn ~deps
         [
           R.Log_record.Begin { txn; lsn = txn * 2 };
           R.Log_record.Commit { txn; lsn = (txn * 2) + 1 };
         ]);
    ignore (R.Wal.flush wal ~at:0.0)
  in
  commit ~txn:1 ~deps:[];
  commit ~txn:2 ~deps:[ 1 ];
  commit ~txn:3 ~deps:[ 2 ];
  let merged = R.Wal.durable_records wal ~at:10.0 in
  let pos txn =
    let rec go i = function
      | [] -> -1
      | r :: rest ->
        if R.Log_record.txn r = Some txn then i else go (i + 1) rest
    in
    go 0 merged
  in
  checkb "1 before 2" true (pos 1 < pos 2);
  checkb "2 before 3" true (pos 2 < pos 3)

(* Property: for fragments whose page timestamps respect LSN order within
   each device, the merge yields every record exactly once, and records on
   the same device stay in order. *)
let qcheck_log_merge_complete_and_stable =
  QCheck.Test.make ~name:"log merge is complete and per-device stable"
    ~count:80
    QCheck.(
      list_of_size
        Gen.(int_range 0 5)
        (list_of_size Gen.(int_range 0 8) (int_range 1 5)))
    (fun device_page_sizes ->
      let lsn = ref 0 in
      let fragments =
        List.map
          (fun pages ->
            List.mapi
              (fun i size ->
                let records =
                  List.init size (fun _ ->
                      incr lsn;
                      rec_ !lsn)
                in
                (float_of_int (i + 1) *. 0.01 +. float_of_int !lsn, records))
              pages)
          device_page_sizes
      in
      let merged = R.Log_merge.merge fragments in
      let all = List.concat_map (fun f -> List.concat_map snd f) fragments in
      (* Completeness: same multiset of LSNs. *)
      List.sort compare (lsns merged) = List.sort compare (lsns all)
      && (* Per-device order: each fragment's records appear in their
            original relative order. *)
      List.for_all
        (fun fragment ->
          let device_lsns = List.concat_map (fun (_, rs) -> lsns rs) fragment in
          let merged_positions =
            List.filter (fun l -> List.mem l device_lsns) (lsns merged)
          in
          merged_positions = device_lsns)
        fragments)

(* ------------------------------------------------------------------ *)
(* Txn_db aborts                                                       *)
(* ------------------------------------------------------------------ *)

let test_abort_rolls_back_memory () =
  let db = M.Txn_db.create ~strategy:R.Wal.Conventional ~nrecords:10 () in
  ignore (M.Txn_db.transact db [ (0, 100); (1, -100) ]);
  let _txn = M.Txn_db.transact_abort db [ (0, 999); (2, -999) ] in
  checki "slot 0 restored" 100 (M.Txn_db.balance db 0);
  checki "slot 2 restored" 0 (M.Txn_db.balance db 2)

let test_abort_releases_locks () =
  let db = M.Txn_db.create ~nrecords:10 () in
  ignore (M.Txn_db.transact_abort db [ (3, 1) ]);
  (* A later transaction on the same slot must not deadlock or pick up a
     dependency on the aborted transaction. *)
  let o = M.Txn_db.transact db [ (3, 5) ] in
  checkb "committed" true (o.M.Txn_db.txn_id >= 0);
  M.Txn_db.flush db;
  checki "value stands" 5 (M.Txn_db.balance db 3)

let test_abort_survives_recovery () =
  let db = M.Txn_db.create ~strategy:R.Wal.Group_commit ~nrecords:10 () in
  ignore (M.Txn_db.transact db [ (0, 10); (1, -10) ]);
  ignore (M.Txn_db.transact_abort db [ (0, 77); (1, -77) ]);
  ignore (M.Txn_db.transact db [ (0, 5); (1, -5) ]);
  M.Txn_db.flush db;
  M.Txn_db.crash db;
  ignore (M.Txn_db.recover db);
  checki "aborted effects absent" 15 (M.Txn_db.balance db 0);
  checki "partner consistent" (-15) (M.Txn_db.balance db 1)

let test_abort_interleaved_crash_consistency () =
  (* Aborts sprinkled through committed work; crash with an unflushed
     tail; recovery must land on the committed prefix only. *)
  let db = M.Txn_db.create ~strategy:R.Wal.Group_commit ~nrecords:20 () in
  for i = 1 to 40 do
    if i mod 5 = 0 then
      ignore (M.Txn_db.transact_abort db [ (i mod 20, 1000) ])
    else
      ignore (M.Txn_db.transact db [ (i mod 20, 2); ((i + 1) mod 20, -2) ]);
    M.Txn_db.advance db 1e-3
  done;
  M.Txn_db.crash db;
  ignore (M.Txn_db.recover db);
  let sum = ref 0 in
  for s = 0 to 19 do
    sum := !sum + M.Txn_db.balance db s;
    checkb "no 1000-unit aborted residue" true
      (abs (M.Txn_db.balance db s) < 1000)
  done;
  checki "zero-sum" 0 !sum

(* ------------------------------------------------------------------ *)
(* Vm_hash (§6: virtual memory)                                        *)
(* ------------------------------------------------------------------ *)

let rs_schema name =
  S.Schema.create ~key:"k"
    [ S.Schema.column "k" S.Schema.Int; S.Schema.column name S.Schema.Int ]

let build_pair ?(page_size = 128) n range seed =
  let env = S.Env.create () in
  let disk = S.Disk.create ~env ~page_size in
  let rng = U.Xorshift.create seed in
  let mk name =
    let schema = rs_schema name in
    S.Relation.of_tuples ~disk ~name ~schema
      (List.init n (fun i ->
           S.Tuple.encode schema
             [ S.Tuple.VInt (U.Xorshift.int rng range); S.Tuple.VInt i ]))
  in
  (env, mk "v", mk "w")

let test_vm_hash_correct () =
  let _, r, s = build_pair 400 80 3 in
  let expected = E.Nested_loop.join_uncharged r s (fun _ _ -> ()) in
  let got = E.Vm_hash.join ~mem_pages:4 ~fudge:1.2 r s (fun _ _ -> ()) in
  checki "same matches as oracle" expected got

let test_vm_hash_no_faults_when_fits () =
  let env, r, s = build_pair 200 50 5 in
  let before = env.S.Env.counters.S.Counters.rand_reads in
  ignore (E.Vm_hash.join ~mem_pages:4096 ~fudge:1.2 r s (fun _ _ -> ()));
  checki "no faults with ample memory" before
    env.S.Env.counters.S.Counters.rand_reads

let test_vm_hash_thrashes_under_pressure () =
  let env, r, s = build_pair 2000 500 7 in
  let before = env.S.Env.counters.S.Counters.rand_reads in
  ignore (E.Vm_hash.join ~mem_pages:3 ~fudge:1.2 r s (fun _ _ -> ()));
  let faults = env.S.Env.counters.S.Counters.rand_reads - before in
  checkb (Printf.sprintf "faults under pressure (%d)" faults) true
    (faults > 1000)

let test_vm_hash_loses_to_hybrid () =
  (* The §6 question answered: explicit partitioning beats VM paging once
     R outgrows memory. *)
  let measure f =
    let env, r, s = build_pair 3000 800 11 in
    let t0 = S.Env.elapsed env in
    ignore (f r s);
    S.Env.elapsed env -. t0
  in
  let vm =
    measure (fun r s -> E.Vm_hash.join ~mem_pages:4 ~fudge:1.2 r s (fun _ _ -> ()))
  in
  let hybrid =
    measure (fun r s ->
        E.Hybrid_hash.join ~mem_pages:4 ~fudge:1.2 r s (fun _ _ -> ()))
  in
  checkb
    (Printf.sprintf "hybrid %.2fs beats VM %.2fs" hybrid vm)
    true (hybrid < vm)

(* ------------------------------------------------------------------ *)
(* Version store & MVCC (§6: versioning)                               *)
(* ------------------------------------------------------------------ *)

let test_version_store_snapshot_reads () =
  let v = R.Version_store.create ~nrecords:4 () in
  R.Version_store.write v ~ts:1.0 ~slot:0 ~value:10;
  R.Version_store.write v ~ts:2.0 ~slot:0 ~value:20;
  R.Version_store.write v ~ts:3.0 ~slot:0 ~value:30;
  checki "at 0.5 sees initial" 0 (R.Version_store.read v ~ts:0.5 ~slot:0);
  checki "at 1.5" 10 (R.Version_store.read v ~ts:1.5 ~slot:0);
  checki "at 2.0 inclusive" 20 (R.Version_store.read v ~ts:2.0 ~slot:0);
  checki "latest" 30 (R.Version_store.read v ~ts:Float.max_float ~slot:0);
  checki "other slot untouched" 0 (R.Version_store.read v ~ts:9.0 ~slot:1)

let test_version_store_write_order_enforced () =
  let v = R.Version_store.create ~nrecords:2 () in
  R.Version_store.write v ~ts:5.0 ~slot:0 ~value:1;
  checkb "stale write rejected" true
    (try
       R.Version_store.write v ~ts:5.0 ~slot:0 ~value:2;
       false
     with Invalid_argument _ -> true)

let test_version_store_gc () =
  let v = R.Version_store.create ~nrecords:2 () in
  for i = 1 to 10 do
    R.Version_store.write v ~ts:(float_of_int i) ~slot:0 ~value:i
  done;
  let before = R.Version_store.version_count v in
  let reclaimed = R.Version_store.gc v ~oldest_active_ts:7.5 in
  checkb "reclaimed some" true (reclaimed > 0);
  checki "count updated" (before - reclaimed) (R.Version_store.version_count v);
  (* Reads at or after the horizon still work. *)
  checki "read at horizon" 7 (R.Version_store.read v ~ts:7.5 ~slot:0);
  checki "read latest" 10 (R.Version_store.read v ~ts:Float.max_float ~slot:0)

let qcheck_version_store_matches_history =
  QCheck.Test.make ~name:"version store equals replayed history" ~count:100
    QCheck.(list (pair (int_range 0 4) (int_range 1 100)))
    (fun writes ->
      let v = R.Version_store.create ~nrecords:5 () in
      let history = ref [] in
      List.iteri
        (fun i (slot, value) ->
          let ts = float_of_int (i + 1) in
          R.Version_store.write v ~ts ~slot ~value;
          history := (ts, slot, value) :: !history)
        writes;
      (* Any snapshot equals a left-fold of the history prefix. *)
      let n = List.length writes in
      List.for_all
        (fun k ->
          let ts = float_of_int k +. 0.5 in
          let expect = Array.make 5 0 in
          List.iter
            (fun (wts, slot, value) ->
              if wts <= ts then expect.(slot) <- value)
            (List.rev !history);
          Array.to_list expect
          = List.init 5 (fun slot -> R.Version_store.read v ~ts ~slot))
        [ 0; n / 2; n ])

let test_mvcc_versioning_beats_locking () =
  let locking = R.Mvcc_sim.run ~n_writers:8000 R.Mvcc_sim.Locking in
  let versioning = R.Mvcc_sim.run ~n_writers:8000 R.Mvcc_sim.Versioning in
  checkb "both consistent" true
    (locking.R.Mvcc_sim.snapshots_consistent
    && versioning.R.Mvcc_sim.snapshots_consistent);
  checkb
    (Printf.sprintf "versioning tps %.0f > locking tps %.0f"
       versioning.R.Mvcc_sim.writer_tps locking.R.Mvcc_sim.writer_tps)
    true
    (versioning.R.Mvcc_sim.writer_tps > locking.R.Mvcc_sim.writer_tps);
  checkb
    (Printf.sprintf "versioning p99 %.3f < locking p99 %.3f"
       versioning.R.Mvcc_sim.writer_p99_latency
       locking.R.Mvcc_sim.writer_p99_latency)
    true
    (versioning.R.Mvcc_sim.writer_p99_latency
    < locking.R.Mvcc_sim.writer_p99_latency);
  checkb "versioning pays space" true (versioning.R.Mvcc_sim.versions_peak > 0);
  checki "locking stores no versions" 0 locking.R.Mvcc_sim.versions_peak;
  checkb "readers ran" true (locking.R.Mvcc_sim.reader_count > 2)

(* ------------------------------------------------------------------ *)
(* Buffer policies: FIFO & LRU-2                                       *)
(* ------------------------------------------------------------------ *)

let pool_env capacity policy npages =
  let env = S.Env.create () in
  let d = S.Disk.create ~env ~page_size:64 in
  let pids = Array.init npages (fun _ -> S.Disk.alloc d) in
  (env, pids, S.Buffer_pool.create ~disk:d ~capacity policy)

let test_fifo_evicts_oldest_arrival () =
  let _, pids, pool = pool_env 2 S.Buffer_pool.Fifo 3 in
  ignore (S.Buffer_pool.get pool pids.(0));
  ignore (S.Buffer_pool.get pool pids.(1));
  (* Re-touch 0: FIFO ignores recency. *)
  ignore (S.Buffer_pool.get pool pids.(0));
  ignore (S.Buffer_pool.get pool pids.(2));
  checkb "0 evicted despite recent touch" false
    (S.Buffer_pool.is_resident pool pids.(0));
  checkb "1 survives" true (S.Buffer_pool.is_resident pool pids.(1))

let test_lru2_prefers_twice_touched () =
  let _, pids, pool = pool_env 2 S.Buffer_pool.Lru_2 3 in
  ignore (S.Buffer_pool.get pool pids.(0));
  ignore (S.Buffer_pool.get pool pids.(0));
  (* page 0 touched twice *)
  ignore (S.Buffer_pool.get pool pids.(1));
  (* page 1 touched once: it is the LRU-2 victim even though page 0 is
     older by last use. *)
  ignore (S.Buffer_pool.get pool pids.(2));
  checkb "once-touched 1 evicted" false
    (S.Buffer_pool.is_resident pool pids.(1));
  checkb "twice-touched 0 kept" true (S.Buffer_pool.is_resident pool pids.(0))

let test_new_policies_bounded () =
  List.iter
    (fun policy ->
      let _, pids, pool = pool_env 3 policy 10 in
      for _ = 1 to 4 do
        Array.iter (fun pid -> ignore (S.Buffer_pool.get pool pid)) pids
      done;
      checkb "bounded" true (S.Buffer_pool.resident pool <= 3))
    [ S.Buffer_pool.Fifo; S.Buffer_pool.Lru_2 ]

(* ------------------------------------------------------------------ *)
(* Btree bulk load                                                     *)
(* ------------------------------------------------------------------ *)

let bl_schema () = rs_schema "v"
let mk_bl k = S.Tuple.encode (bl_schema ()) [ S.Tuple.VInt k; S.Tuple.VInt k ]

let test_bulk_load_basic () =
  let env = S.Env.create () in
  let tuples = List.init 1000 (fun i -> mk_bl (i * 2)) in
  let t = I.Btree.bulk_load ~env ~schema:(bl_schema ()) ~page_size:128 tuples in
  checki "length" 1000 (I.Btree.length t);
  checkb "invariants" true (I.Btree.check_invariants t);
  (* Every key present, absent keys miss. *)
  for i = 0 to 999 do
    checkb "hit" true
      (I.Btree.search t (S.Tuple.encode_int_key (bl_schema ()) (i * 2)) <> None)
  done;
  checkb "miss" true
    (I.Btree.search t (S.Tuple.encode_int_key (bl_schema ()) 1) = None);
  (* Scans work across the chained leaves. *)
  let got = ref [] in
  I.Btree.range_scan t
    ~lo:(S.Tuple.encode_int_key (bl_schema ()) 99)
    ~hi:(S.Tuple.encode_int_key (bl_schema ()) 104)
    (fun tup -> got := S.Tuple.get_int (bl_schema ()) tup 0 :: !got);
  Alcotest.(check (list int)) "scan" [ 100; 102; 104 ] (List.rev !got)

let test_bulk_load_empty_and_tiny () =
  let env = S.Env.create () in
  let t = I.Btree.bulk_load ~env ~schema:(bl_schema ()) ~page_size:128 [] in
  checki "empty" 0 (I.Btree.length t);
  checkb "invariants" true (I.Btree.check_invariants t);
  let t1 = I.Btree.bulk_load ~env ~schema:(bl_schema ()) ~page_size:128 [ mk_bl 5 ] in
  checki "singleton" 1 (I.Btree.length t1);
  checkb "findable" true
    (I.Btree.search t1 (S.Tuple.encode_int_key (bl_schema ()) 5) <> None)

let test_bulk_load_occupancy () =
  let env = S.Env.create () in
  let tuples = List.init 3000 mk_bl in
  let full = I.Btree.bulk_load ~env ~schema:(bl_schema ()) ~page_size:128 tuples in
  let yao =
    I.Btree.bulk_load ~env ~schema:(bl_schema ()) ~page_size:128
      ~occupancy:0.69 tuples
  in
  checkb "full ~100% occupancy" true (I.Btree.avg_leaf_occupancy full > 0.95);
  let o = I.Btree.avg_leaf_occupancy yao in
  checkb (Printf.sprintf "yao occupancy %.2f ~ 0.69" o) true
    (o > 0.62 && o < 0.76);
  checkb "fewer pages when full" true
    (I.Btree.node_count full < I.Btree.node_count yao);
  checkb "both valid" true
    (I.Btree.check_invariants full && I.Btree.check_invariants yao)

let test_bulk_load_rejects_unsorted () =
  let env = S.Env.create () in
  checkb "unsorted rejected" true
    (try
       ignore
         (I.Btree.bulk_load ~env ~schema:(bl_schema ()) ~page_size:128
            [ mk_bl 2; mk_bl 1 ]);
       false
     with Invalid_argument _ -> true);
  checkb "duplicates rejected" true
    (try
       ignore
         (I.Btree.bulk_load ~env ~schema:(bl_schema ()) ~page_size:128
            [ mk_bl 1; mk_bl 1 ]);
       false
     with Invalid_argument _ -> true)

let test_bulk_load_then_mutate () =
  let env = S.Env.create () in
  let tuples = List.init 500 (fun i -> mk_bl (i * 3)) in
  let t = I.Btree.bulk_load ~env ~schema:(bl_schema ()) ~page_size:128 tuples in
  (* Inserts on a bulk-loaded tree keep it valid. *)
  for i = 0 to 200 do
    I.Btree.insert t (mk_bl ((i * 3) + 1))
  done;
  checkb "invariants after inserts" true (I.Btree.check_invariants t);
  checki "cardinality" (500 + 201) (I.Btree.length t)

let qcheck_bulk_load_equals_incremental =
  QCheck.Test.make ~name:"bulk load equals incremental build" ~count:50
    QCheck.(list_of_size Gen.(int_range 0 300) (int_range 0 10_000))
    (fun keys ->
      let keys = List.sort_uniq compare keys in
      let env = S.Env.create () in
      let tuples = List.map mk_bl keys in
      let bulk =
        I.Btree.bulk_load ~env ~schema:(bl_schema ()) ~page_size:128 tuples
      in
      let incr = I.Btree.create ~env ~schema:(bl_schema ()) ~page_size:128 () in
      List.iter (I.Btree.insert incr) tuples;
      let dump t =
        let acc = ref [] in
        I.Btree.iter_in_order t (fun tup ->
            acc := S.Tuple.get_int (bl_schema ()) tup 0 :: !acc);
        List.rev !acc
      in
      dump bulk = keys && dump incr = keys
      && I.Btree.check_invariants bulk)

(* ------------------------------------------------------------------ *)
(* Set operations                                                      *)
(* ------------------------------------------------------------------ *)

let so_schema = rs_schema "v"

let load_set disk name pairs =
  S.Relation.of_tuples ~disk ~name ~schema:so_schema
    (List.map
       (fun (k, v) ->
         S.Tuple.encode so_schema [ S.Tuple.VInt k; S.Tuple.VInt v ])
       pairs)

let dump_set rel =
  let acc = ref [] in
  S.Relation.iter_tuples_nocharge rel (fun t ->
      acc := (S.Tuple.get_int so_schema t 0, S.Tuple.get_int so_schema t 1) :: !acc);
  List.sort compare !acc

(* A set operation sized by both inputs' tuple counts. *)
let set_op op ~mem_pages l r =
  fst
    (E.Aggregate.set_op op ~mem_pages ~fudge:1.2
       ~groups:(S.Relation.ntuples l + S.Relation.ntuples r)
       (E.Aggregate.Relation l) (E.Aggregate.Relation r))

let set_env () =
  let env = S.Env.create () in
  (env, S.Disk.create ~env ~page_size:128)

let test_set_ops_fixed () =
  let _, disk = set_env () in
  let l = load_set disk "L" [ (1, 1); (2, 2); (2, 2); (3, 3) ] in
  let r = load_set disk "R" [ (2, 2); (4, 4) ] in
  Alcotest.(check (list (pair int int)))
    "union"
    [ (1, 1); (2, 2); (3, 3); (4, 4) ]
    (dump_set (set_op E.Aggregate.Union ~mem_pages:8 l r));
  Alcotest.(check (list (pair int int)))
    "intersection" [ (2, 2) ]
    (dump_set (set_op E.Aggregate.Intersect ~mem_pages:8 l r));
  Alcotest.(check (list (pair int int)))
    "difference"
    [ (1, 1); (3, 3) ]
    (dump_set (set_op E.Aggregate.Except ~mem_pages:8 l r))

let test_set_ops_width_mismatch () =
  let _, disk = set_env () in
  let l = load_set disk "L" [ (1, 1) ] in
  let wide =
    S.Schema.create ~key:"k"
      [ S.Schema.column "k" S.Schema.Int; S.Schema.column ~width:24 "s" S.Schema.Fixed_string ]
  in
  let r = S.Relation.of_tuples ~disk ~name:"R" ~schema:wide [] in
  Alcotest.check_raises "width mismatch"
    (Invalid_argument "Aggregate.set_op: tuple widths differ") (fun () ->
      ignore (set_op E.Aggregate.Union ~mem_pages:8 l r))

(* The right input has the left's width but is keyed on its second
   column, and memory runs down to sizes that spill into many buckets:
   equal tuples meet only if both sides partition on the whole tuple,
   not on each schema's key. *)
let so_schema_by_v =
  S.Schema.create ~key:"v"
    [ S.Schema.column "k" S.Schema.Int; S.Schema.column "v" S.Schema.Int ]

let qcheck_set_ops_match_lists =
  QCheck.Test.make ~name:"set ops agree with list model (any memory)" ~count:60
    QCheck.(
      let tuples =
        list_of_size Gen.(int_range 0 150) (pair (int_range 0 12) (int_range 0 6))
      in
      triple tuples tuples (int_range 2 32))
    (fun (lp, rp, mem_pages) ->
      let _, disk = set_env () in
      let l = load_set disk "L" lp in
      let r =
        S.Relation.of_tuples ~disk ~name:"R" ~schema:so_schema_by_v
          (List.map
             (fun (k, v) ->
               S.Tuple.encode so_schema_by_v [ S.Tuple.VInt k; S.Tuple.VInt v ])
             rp)
      in
      let model_l = List.sort_uniq compare lp in
      let model_r = List.sort_uniq compare rp in
      let union_m = List.sort_uniq compare (model_l @ model_r) in
      let inter_m = List.filter (fun x -> List.mem x model_r) model_l in
      let diff_m = List.filter (fun x -> not (List.mem x model_r)) model_l in
      dump_set (set_op E.Aggregate.Union ~mem_pages l r) = union_m
      && dump_set (set_op E.Aggregate.Intersect ~mem_pages l r) = inter_m
      && dump_set (set_op E.Aggregate.Except ~mem_pages l r) = diff_m)

let () =
  Alcotest.run "mmdb_extensions"
    [
      ( "log_merge",
        [
          Alcotest.test_case "interleaves by timestamp" `Quick
            test_log_merge_interleaves_by_timestamp;
          Alcotest.test_case "tie-break by lsn" `Quick
            test_log_merge_tie_break_by_lsn;
          Alcotest.test_case "empty" `Quick test_log_merge_empty;
          Alcotest.test_case "tie-break by fragment order" `Quick
            test_log_merge_tie_break_fragment_order;
          Alcotest.test_case "conflict order preserved" `Quick
            test_wal_partitioned_merge_preserves_conflict_order;
          QCheck_alcotest.to_alcotest qcheck_log_merge_complete_and_stable;
        ] );
      ( "aborts",
        [
          Alcotest.test_case "rolls back memory" `Quick
            test_abort_rolls_back_memory;
          Alcotest.test_case "releases locks" `Quick test_abort_releases_locks;
          Alcotest.test_case "survives recovery" `Quick
            test_abort_survives_recovery;
          Alcotest.test_case "interleaved crash consistency" `Quick
            test_abort_interleaved_crash_consistency;
        ] );
      ( "vm_hash",
        [
          Alcotest.test_case "correct" `Quick test_vm_hash_correct;
          Alcotest.test_case "no faults when fits" `Quick
            test_vm_hash_no_faults_when_fits;
          Alcotest.test_case "thrashes under pressure" `Quick
            test_vm_hash_thrashes_under_pressure;
          Alcotest.test_case "loses to hybrid" `Quick test_vm_hash_loses_to_hybrid;
        ] );
      ( "versioning",
        [
          Alcotest.test_case "snapshot reads" `Quick
            test_version_store_snapshot_reads;
          Alcotest.test_case "write order" `Quick
            test_version_store_write_order_enforced;
          Alcotest.test_case "gc" `Quick test_version_store_gc;
          QCheck_alcotest.to_alcotest qcheck_version_store_matches_history;
          Alcotest.test_case "mvcc beats locking" `Slow
            test_mvcc_versioning_beats_locking;
        ] );
      ( "buffer_policies",
        [
          Alcotest.test_case "fifo" `Quick test_fifo_evicts_oldest_arrival;
          Alcotest.test_case "lru-2" `Quick test_lru2_prefers_twice_touched;
          Alcotest.test_case "bounded" `Quick test_new_policies_bounded;
        ] );
      ( "bulk_load",
        [
          Alcotest.test_case "basic" `Quick test_bulk_load_basic;
          Alcotest.test_case "empty & tiny" `Quick test_bulk_load_empty_and_tiny;
          Alcotest.test_case "occupancy" `Quick test_bulk_load_occupancy;
          Alcotest.test_case "rejects unsorted" `Quick
            test_bulk_load_rejects_unsorted;
          Alcotest.test_case "mutate after" `Quick test_bulk_load_then_mutate;
          QCheck_alcotest.to_alcotest qcheck_bulk_load_equals_incremental;
        ] );
      ( "set_ops",
        [
          Alcotest.test_case "fixed" `Quick test_set_ops_fixed;
          Alcotest.test_case "width mismatch" `Quick test_set_ops_width_mismatch;
          QCheck_alcotest.to_alcotest qcheck_set_ops_match_lists;
        ] );
    ]
