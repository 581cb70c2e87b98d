(* Tests for the Mmdb facade: Db (tables, indexes, queries) and Txn_db
   (incremental transactions, group commit, crash, recovery). *)

module M = Mmdb
module S = Mmdb_storage
module E = Mmdb_exec
module A = Mmdb_planner.Algebra
module R = Mmdb_recovery
module V = Mmdb_verify

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let emp_schema () =
  S.Schema.create ~key:"id"
    [
      S.Schema.column "id" S.Schema.Int;
      S.Schema.column "dept" S.Schema.Int;
      S.Schema.column "salary" S.Schema.Int;
    ]

let setup_db () =
  let db = M.Db.create () in
  M.Db.create_table db ~name:"emp" ~schema:(emp_schema ());
  M.Db.insert_many db ~table:"emp"
    (List.init 100 (fun i ->
         [
           S.Tuple.VInt i;
           S.Tuple.VInt (i mod 7);
           S.Tuple.VInt (30_000 + (i * 500));
         ]));
  db

(* ------------------------------------------------------------------ *)
(* Db                                                                  *)
(* ------------------------------------------------------------------ *)

let test_db_create_and_insert () =
  let db = setup_db () in
  Alcotest.(check (list string)) "tables" [ "emp" ] (M.Db.table_names db);
  checkb "duplicate table rejected" true
    (try
       M.Db.create_table db ~name:"emp" ~schema:(emp_schema ());
       false
     with Invalid_argument _ -> true)

let test_db_lookup_scan_fallback () =
  let db = setup_db () in
  match M.Db.lookup db ~table:"emp" ~key:(S.Tuple.VInt 42) with
  | Some [ S.Tuple.VInt 42; S.Tuple.VInt 0; S.Tuple.VInt 51_000 ] -> ()
  | Some _ -> Alcotest.fail "wrong row"
  | None -> Alcotest.fail "missing row"

let test_db_lookup_with_indexes () =
  List.iter
    (fun kind ->
      let db = setup_db () in
      M.Db.create_index db ~table:"emp" kind;
      (match M.Db.lookup db ~table:"emp" ~key:(S.Tuple.VInt 99) with
      | Some (S.Tuple.VInt 99 :: _) -> ()
      | Some _ | None -> Alcotest.fail "indexed lookup failed");
      checkb "miss is None" true
        (M.Db.lookup db ~table:"emp" ~key:(S.Tuple.VInt 1000) = None);
      (* Index stays consistent under post-build inserts. *)
      M.Db.insert db ~table:"emp"
        [ S.Tuple.VInt 500; S.Tuple.VInt 1; S.Tuple.VInt 1 ];
      match M.Db.lookup db ~table:"emp" ~key:(S.Tuple.VInt 500) with
      | Some (S.Tuple.VInt 500 :: _) -> ()
      | Some _ | None -> Alcotest.fail "index not maintained")
    [ M.Db.Avl_index; M.Db.Btree_index ]

let test_db_duplicate_index_rejected () =
  let db = setup_db () in
  M.Db.create_index db ~table:"emp" M.Db.Avl_index;
  checkb "second AVL rejected" true
    (try
       M.Db.create_index db ~table:"emp" M.Db.Avl_index;
       false
     with Invalid_argument _ -> true)

let raises_invalid f =
  match f () with () -> false | exception Invalid_argument _ -> true

let test_db_insert_duplicate_key () =
  let db = setup_db () in
  let row = [ S.Tuple.VInt 42; S.Tuple.VInt 1; S.Tuple.VInt 1 ] in
  M.Db.create_index db ~table:"emp" M.Db.Btree_index;
  checkb "indexed table rejects a taken key" true
    (raises_invalid (fun () -> M.Db.insert db ~table:"emp" row));
  checkb "bulk insert with a taken key rejected" true
    (raises_invalid (fun () ->
         M.Db.insert_many db ~table:"emp"
           [ [ S.Tuple.VInt 300; S.Tuple.VInt 0; S.Tuple.VInt 0 ]; row ]));
  checkb "nothing of the batch appended" true
    (M.Db.lookup db ~table:"emp" ~key:(S.Tuple.VInt 300) = None);
  (match M.Db.lookup db ~table:"emp" ~key:(S.Tuple.VInt 42) with
  | Some [ S.Tuple.VInt 42; S.Tuple.VInt 0; S.Tuple.VInt 51_000 ] -> ()
  | Some _ | None -> Alcotest.fail "original row replaced");
  checki "relation unchanged" 100
    (List.length (M.Db.sql db "SELECT * FROM emp"))

let test_db_create_index_over_duplicates () =
  let db = setup_db () in
  M.Db.insert db ~table:"emp" [ S.Tuple.VInt 7; S.Tuple.VInt 1; S.Tuple.VInt 1 ];
  List.iter
    (fun kind ->
      checkb "duplicate keys refuse an index" true
        (raises_invalid (fun () -> M.Db.create_index db ~table:"emp" kind)))
    [ M.Db.Avl_index; M.Db.Btree_index ];
  checkb "no index left behind" true
    (M.Db.audit db = [])

let test_db_range () =
  let db = setup_db () in
  M.Db.create_index db ~table:"emp" M.Db.Btree_index;
  let rows =
    M.Db.range db ~table:"emp" ~lo:(S.Tuple.VInt 10) ~hi:(S.Tuple.VInt 14)
  in
  checki "5 rows" 5 (List.length rows);
  let ids =
    List.map
      (fun row ->
        match row with
        | S.Tuple.VInt id :: _ -> id
        | _ -> Alcotest.fail "bad row")
      rows
  in
  Alcotest.(check (list int)) "ascending ids" [ 10; 11; 12; 13; 14 ] ids

let test_db_range_scan_fallback_sorted () =
  let db = setup_db () in
  let rows =
    M.Db.range db ~table:"emp" ~lo:(S.Tuple.VInt 97) ~hi:(S.Tuple.VInt 99)
  in
  checki "3 rows" 3 (List.length rows)

let test_db_query_pipeline () =
  let db = setup_db () in
  let rows =
    M.Db.query_rows db
      (A.aggregate ~group_by:"dept" ~aggs:[ E.Aggregate.Count ]
         (A.scan "emp"))
  in
  checki "7 groups" 7 (List.length rows);
  let total =
    List.fold_left
      (fun acc row ->
        match row with
        | [ _; S.Tuple.VInt c ] -> acc + c
        | _ -> Alcotest.fail "bad agg row")
      0 rows
  in
  checki "all rows counted" 100 total

let test_db_explain () =
  let db = setup_db () in
  let text =
    M.Db.explain db
      (A.select ~column:"salary" ~op:A.Gt ~value:(S.Tuple.VInt 50_000)
         (A.scan "emp"))
  in
  checkb "nonempty" true (String.length text > 0)

let test_db_stats_string () =
  let db = setup_db () in
  ignore (M.Db.lookup db ~table:"emp" ~key:(S.Tuple.VInt 1));
  checkb "stats nonempty" true (String.length (M.Db.stats db) > 0)

(* ------------------------------------------------------------------ *)
(* Persistence                                                         *)
(* ------------------------------------------------------------------ *)

let with_temp_file f =
  let path = Filename.temp_file "mmdb_test" ".db" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let mixed_schema () =
  S.Schema.create ~key:"id"
    [
      S.Schema.column "id" S.Schema.Int;
      S.Schema.column ~width:12 "name" S.Schema.Fixed_string;
      S.Schema.column ~width:4 "score" S.Schema.Int;
    ]

let test_save_load_roundtrip () =
  with_temp_file (fun path ->
      let db = setup_db () in
      M.Db.create_table db ~name:"people" ~schema:(mixed_schema ());
      M.Db.insert_many db ~table:"people"
        (List.init 25 (fun i ->
             [
               S.Tuple.VInt i;
               S.Tuple.VStr (Printf.sprintf "p%d" i);
               S.Tuple.VInt (i * 7);
             ]));
      M.Db.create_index db ~table:"emp" M.Db.Btree_index;
      M.Db.save db path;
      let db2 = M.Db.load path in
      Alcotest.(check (list string))
        "tables"
        (List.sort compare (M.Db.table_names db))
        (List.sort compare (M.Db.table_names db2));
      (* All rows identical. *)
      List.iter
        (fun table ->
          let dump d =
            List.sort compare (M.Db.sql d ("SELECT * FROM " ^ table))
          in
          checkb (table ^ " identical") true (dump db = dump db2))
        [ "emp"; "people" ];
      (* Mixed-type rows decode correctly. *)
      (match M.Db.lookup db2 ~table:"people" ~key:(S.Tuple.VInt 7) with
      | Some [ S.Tuple.VInt 7; S.Tuple.VStr "p7"; S.Tuple.VInt 49 ] -> ()
      | _ -> Alcotest.fail "people row corrupted");
      (* The saved index kind was rebuilt and works. *)
      match M.Db.lookup db2 ~table:"emp" ~key:(S.Tuple.VInt 42) with
      | Some (S.Tuple.VInt 42 :: _) -> ()
      | _ -> Alcotest.fail "index lost in roundtrip")

let test_save_load_queries_work () =
  with_temp_file (fun path ->
      let db = setup_db () in
      M.Db.save db path;
      let db2 = M.Db.load path in
      (* Statistics were recomputed: the planner runs fine. *)
      let rows =
        M.Db.sql db2 "SELECT dept, COUNT(*) FROM emp GROUP BY dept"
      in
      checki "7 groups" 7 (List.length rows);
      (* DML after load works too. *)
      (match M.Db.execute db2 "DELETE FROM emp WHERE dept = 0" with
      | M.Db.Affected n -> checkb "some deleted" true (n > 0)
      | M.Db.Rows _ -> Alcotest.fail "expected Affected"))

let test_load_bad_magic () =
  with_temp_file (fun path ->
      let oc = open_out_bin path in
      output_string oc "NOTADB!!";
      close_out oc;
      checkb "bad magic rejected" true
        (try
           ignore (M.Db.load path);
           false
         with Invalid_argument _ -> true))

let test_load_truncated () =
  with_temp_file (fun path ->
      let db = setup_db () in
      M.Db.save db path;
      let ic = open_in_bin path in
      let full = really_input_string ic (in_channel_length ic) in
      close_in ic;
      let oc = open_out_bin path in
      output_string oc (String.sub full 0 (String.length full - 10));
      close_out oc;
      checkb "truncation rejected" true
        (try
           ignore (M.Db.load path);
           false
         with Invalid_argument _ -> true))

let test_save_empty_db () =
  with_temp_file (fun path ->
      let db = M.Db.create () in
      M.Db.save db path;
      let db2 = M.Db.load path in
      Alcotest.(check (list string)) "no tables" [] (M.Db.table_names db2))

(* ------------------------------------------------------------------ *)
(* Txn_db                                                              *)
(* ------------------------------------------------------------------ *)

let test_txn_basic_commit () =
  let db = M.Txn_db.create ~strategy:R.Wal.Conventional () in
  let o = M.Txn_db.transact db [ (0, 100); (1, -100) ] in
  checkb "durable (conventional)" true (o.M.Txn_db.durable_at <> None);
  checki "balance 0" 100 (M.Txn_db.balance db 0);
  checki "balance 1" (-100) (M.Txn_db.balance db 1)

let test_txn_group_commit_pending () =
  let db = M.Txn_db.create ~strategy:R.Wal.Group_commit () in
  let o = M.Txn_db.transact db [ (0, 5); (1, -5) ] in
  checkb "pending in open group" true (o.M.Txn_db.durable_at = None);
  checkb "not yet committed" true
    (not (List.mem o.M.Txn_db.txn_id (M.Txn_db.committed_txns db)));
  M.Txn_db.flush db;
  checkb "committed after flush" true
    (List.mem o.M.Txn_db.txn_id (M.Txn_db.committed_txns db))

(* [completion] reads the ticket by id, past the ticket array's first
   size: pending until the flush, durable after it, [None] for an
   aborted, a negative or an unknown id. *)
let test_txn_completion_by_id () =
  let db = M.Txn_db.create ~strategy:R.Wal.Group_commit ~nrecords:50 () in
  let ids =
    List.init 300 (fun i ->
        (M.Txn_db.transact db [ (i mod 50, 1); ((i + 1) mod 50, -1) ])
          .M.Txn_db.txn_id)
  in
  let aborted = M.Txn_db.transact_abort db [ (7, 3); (8, -3) ] in
  let last = List.nth ids 299 in
  checkb "last pending" true (M.Txn_db.completion db ~txn:last = None);
  M.Txn_db.flush db;
  checkb "every commit durable after flush" true
    (List.for_all (fun txn -> M.Txn_db.completion db ~txn <> None) ids);
  checkb "aborted: none" true (M.Txn_db.completion db ~txn:aborted = None);
  checkb "negative: none" true (M.Txn_db.completion db ~txn:(-1) = None);
  checkb "unknown: none" true (M.Txn_db.completion db ~txn:100_000 = None)

let test_txn_crash_recover_durable () =
  let db = M.Txn_db.create ~strategy:R.Wal.Group_commit ~nrecords:50 () in
  for _ = 1 to 30 do
    ignore (M.Txn_db.transact db [ (2, 10); (3, -10) ]);
    M.Txn_db.advance db 1e-3
  done;
  M.Txn_db.flush db;
  let before = Array.init 50 (M.Txn_db.balance db) in
  M.Txn_db.crash db;
  checkb "reads blocked after crash" true
    (try
       ignore (M.Txn_db.balance db 0);
       false
     with Invalid_argument _ -> true);
  ignore (M.Txn_db.recover db);
  let after = Array.init 50 (M.Txn_db.balance db) in
  checkb "state restored" true (before = after)

let test_txn_crash_loses_unflushed_group () =
  let db = M.Txn_db.create ~strategy:R.Wal.Group_commit ~nrecords:50 () in
  ignore (M.Txn_db.transact db [ (0, 7); (1, -7) ]);
  (* No flush: the group never left the volatile buffer. *)
  M.Txn_db.crash db;
  ignore (M.Txn_db.recover db);
  checki "update rolled away" 0 (M.Txn_db.balance db 0);
  checki "partner rolled away" 0 (M.Txn_db.balance db 1)

(* What survives a crash is fixed at the crash instant: a conventional
   commit's log write is still in flight when the crash lands, so it is
   lost however long the caller waits before recovering. *)
let test_txn_crash_instant_fixed () =
  let run ~wait =
    let db = M.Txn_db.create ~strategy:R.Wal.Conventional ~nrecords:10 () in
    ignore (M.Txn_db.transact db [ (0, 5); (1, -5) ]);
    M.Txn_db.crash db;
    if wait then M.Txn_db.advance db 1.0;
    let before = M.Txn_db.committed_txns db in
    ignore (M.Txn_db.recover db);
    (M.Txn_db.balance db 0, M.Txn_db.balance db 1, before, M.Txn_db.committed_txns db)
  in
  let b0, b1, before, after = run ~wait:false in
  let b0', b1', before', after' = run ~wait:true in
  checki "in-flight write lost" 0 b0;
  checki "same balance 0" b0 b0';
  checki "same balance 1" b1 b1';
  Alcotest.(check (list int)) "same committed before recovery" before before';
  Alcotest.(check (list int)) "same committed after recovery" after after';
  Alcotest.(check (list int)) "nothing committed" [] after'

(* Log writes a crash loses (the open group-commit buffer, a page in
   flight) stay lost: a later flush must not make them durable. *)
let test_txn_crash_drops_lost_writes () =
  List.iter
    (fun strategy ->
      let db = M.Txn_db.create ~strategy ~nrecords:4 () in
      let first = M.Txn_db.transact db [ (0, 5); (1, -5) ] in
      M.Txn_db.crash db;
      ignore (M.Txn_db.recover db);
      checki "lost transfer rolled away" 0 (M.Txn_db.balance db 0);
      Alcotest.(check (list int)) "nothing committed" [] (M.Txn_db.committed_txns db);
      checkb "lost commit never durable" true (M.Txn_db.completion db ~txn:first.M.Txn_db.txn_id = None);
      M.Txn_db.advance db 1.0;
      let second = M.Txn_db.transact db [ (2, 3); (3, -3) ] in
      M.Txn_db.flush db;
      Alcotest.(check (list int)) "only the later commit" [ second.M.Txn_db.txn_id ]
        (M.Txn_db.committed_txns db);
      M.Txn_db.crash db;
      ignore (M.Txn_db.recover db);
      checki "lost transfer stays lost" 0 (M.Txn_db.balance db 0);
      checki "later transfer survives" 3 (M.Txn_db.balance db 2))
    [ R.Wal.Conventional; R.Wal.Group_commit ]

let test_txn_checkpoint_and_recover () =
  let db = M.Txn_db.create ~strategy:R.Wal.Group_commit ~nrecords:50 () in
  for _ = 1 to 20 do
    ignore (M.Txn_db.transact db [ (4, 1); (5, -1) ]);
    M.Txn_db.advance db 1e-3
  done;
  let st = M.Txn_db.checkpoint db in
  checkb "checkpoint flushed pages" true (st.R.Kv_store.pages_flushed > 0);
  for _ = 1 to 5 do
    ignore (M.Txn_db.transact db [ (4, 1); (5, -1) ]);
    M.Txn_db.advance db 1e-3
  done;
  M.Txn_db.flush db;
  M.Txn_db.crash db;
  let rs = M.Txn_db.recover db in
  checki "balance correct" 25 (M.Txn_db.balance db 4);
  checkb "redo bounded by checkpoint" true (rs.R.Kv_store.redo_applied <= 2 * 5 + 2)

let test_txn_stable_strategy_immediate () =
  let db =
    M.Txn_db.create
      ~strategy:
        (R.Wal.Stable { devices = 1; capacity_bytes = 8192; compressed = true })
      ()
  in
  let o = M.Txn_db.transact db [ (0, 3); (1, -3) ] in
  checkb "instant durability" true (o.M.Txn_db.durable_at = Some 0.0);
  M.Txn_db.crash db;
  ignore (M.Txn_db.recover db);
  checki "survives crash without flush" 3 (M.Txn_db.balance db 0)

let test_txn_validation () =
  let db = M.Txn_db.create () in
  checkb "empty updates rejected" true
    (try
       ignore (M.Txn_db.transact db []);
       false
     with Invalid_argument _ -> true);
  checkb "recover when alive rejected" true
    (try
       ignore (M.Txn_db.recover db);
       false
     with Invalid_argument _ -> true)

(* A slot appearing twice in one update list would hit the lock
   manager's re-acquire path and muddy dependency accounting. *)
let test_txn_duplicate_slot_rejected () =
  let db = M.Txn_db.create () in
  let dup_rejected f =
    try
      ignore (f ());
      false
    with Invalid_argument m ->
      Alcotest.(check bool) "message names the slot" true
        (let sub = "duplicate slot 3" in
         let n = String.length m and k = String.length sub in
         let rec go i = i + k <= n && (String.sub m i k = sub || go (i + 1)) in
         go 0);
      true
  in
  checkb "transact rejects duplicate slot" true
    (dup_rejected (fun () -> M.Txn_db.transact db [ (3, 10); (4, -5); (3, -5) ]));
  checkb "transact_abort rejects duplicate slot" true
    (dup_rejected (fun () -> M.Txn_db.transact_abort db [ (3, 1); (3, -1) ]));
  (* The failed calls left no residue: a normal transaction still runs. *)
  ignore (M.Txn_db.transact db [ (3, 10); (4, -10) ]);
  checki "balance applied" 10 (M.Txn_db.balance db 3)

let test_txn_schedule_recording () =
  let db = M.Txn_db.create () in
  ignore (M.Txn_db.transact db [ (0, 1); (1, -1) ]);
  Alcotest.(check (list Alcotest.reject)) "recording off by default" []
    (M.Txn_db.schedule db);
  let db = M.Txn_db.create ~record_schedule:true ~nrecords:16 () in
  for i = 0 to 4 do
    ignore (M.Txn_db.transact db [ (i, 10); (i + 5, -10) ]);
    M.Txn_db.advance db 1e-3
  done;
  ignore (M.Txn_db.transact_abort db [ (2, 99) ]);
  M.Txn_db.flush db;
  let events = M.Txn_db.schedule db in
  checkb "events recorded" true (events <> []);
  let kind_name : R.Schedule.kind -> string = function
    | Acquire -> "Acquire"
    | Grant _ -> "Grant"
    | Wait _ -> "Wait"
    | Wake _ -> "Wake"
    | Read -> "Read"
    | Write -> "Write"
    | Precommit -> "Precommit"
    | Commit_durable -> "CommitDurable"
    | Abort -> "Abort"
    | Release -> "Release"
  in
  let has k =
    List.exists (fun (e : R.Schedule.event) -> kind_name e.R.Schedule.kind = k) events
  in
  List.iter
    (fun k -> checkb (k ^ " present") true (has k))
    [
      "Acquire"; "Grant"; "Read"; "Write"; "Precommit"; "Release"; "Abort";
      "CommitDurable";
    ];
  (* A fuzzy checkpoint, more transfers, a crash and recovery: the whole
     recorded schedule passes the transaction sanitizer. *)
  ignore (M.Txn_db.checkpoint db);
  for i = 0 to 7 do
    ignore (M.Txn_db.transact db [ (i, 7); (i + 8, -7) ]);
    M.Txn_db.advance db 3e-4
  done;
  M.Txn_db.flush db;
  M.Txn_db.crash db;
  ignore (M.Txn_db.recover db);
  checkb "sanitizer clean" true
    (V.Schedule_check.ok ~log:(M.Txn_db.log_records db) (M.Txn_db.schedule db))

let () =
  Alcotest.run "mmdb_core"
    [
      ( "db",
        [
          Alcotest.test_case "create/insert" `Quick test_db_create_and_insert;
          Alcotest.test_case "lookup scan fallback" `Quick
            test_db_lookup_scan_fallback;
          Alcotest.test_case "lookup with indexes" `Quick
            test_db_lookup_with_indexes;
          Alcotest.test_case "insert duplicate key" `Quick
            test_db_insert_duplicate_key;
          Alcotest.test_case "index over duplicate keys" `Quick
            test_db_create_index_over_duplicates;
          Alcotest.test_case "duplicate index rejected" `Quick
            test_db_duplicate_index_rejected;
          Alcotest.test_case "range via btree" `Quick test_db_range;
          Alcotest.test_case "range scan fallback" `Quick
            test_db_range_scan_fallback_sorted;
          Alcotest.test_case "query pipeline" `Quick test_db_query_pipeline;
          Alcotest.test_case "explain" `Quick test_db_explain;
          Alcotest.test_case "stats" `Quick test_db_stats_string;
        ] );
      ( "persistence",
        [
          Alcotest.test_case "save/load roundtrip" `Quick
            test_save_load_roundtrip;
          Alcotest.test_case "queries after load" `Quick
            test_save_load_queries_work;
          Alcotest.test_case "bad magic" `Quick test_load_bad_magic;
          Alcotest.test_case "truncated" `Quick test_load_truncated;
          Alcotest.test_case "empty db" `Quick test_save_empty_db;
        ] );
      ( "txn_db",
        [
          Alcotest.test_case "basic commit" `Quick test_txn_basic_commit;
          Alcotest.test_case "group commit pending" `Quick
            test_txn_group_commit_pending;
          Alcotest.test_case "completion by id" `Quick test_txn_completion_by_id;
          Alcotest.test_case "crash/recover durable" `Quick
            test_txn_crash_recover_durable;
          Alcotest.test_case "crash drops lost log writes" `Quick
            test_txn_crash_drops_lost_writes;
          Alcotest.test_case "crash loses unflushed group" `Quick
            test_txn_crash_loses_unflushed_group;
          Alcotest.test_case "crash instant fixed" `Quick
            test_txn_crash_instant_fixed;
          Alcotest.test_case "checkpoint + recover" `Quick
            test_txn_checkpoint_and_recover;
          Alcotest.test_case "stable immediate" `Quick
            test_txn_stable_strategy_immediate;
          Alcotest.test_case "validation" `Quick test_txn_validation;
          Alcotest.test_case "duplicate slot rejected" `Quick
            test_txn_duplicate_slot_rejected;
          Alcotest.test_case "schedule recording" `Quick
            test_txn_schedule_recording;
        ] );
    ]
