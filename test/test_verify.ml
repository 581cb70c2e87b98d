(* Tests for the verification layer: the static plan checker's
   ill-formed-plan corpus (one case per error code), the WAL auditor's
   log-corruption injector (one per violation class), the buffer-pool
   sanitizer, the unified audit driver, and invariant property tests over
   random insert/delete workloads. *)

module S = Mmdb_storage
module E = Mmdb_exec
module I = Mmdb_index
module P = Mmdb_planner
module A = P.Algebra
module R = Mmdb_recovery
module L = R.Log_record
module U = Mmdb_util
module D = U.Diag
module V = Mmdb_verify

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* ------------------------------------------------------------------ *)
(* Plan corpus                                                         *)
(* ------------------------------------------------------------------ *)

let emp_schema () =
  S.Schema.create ~key:"id"
    [
      S.Schema.column "id" S.Schema.Int;
      S.Schema.column "dept" S.Schema.Int;
      S.Schema.column "salary" S.Schema.Int;
      S.Schema.column ~width:8 "name" S.Schema.Fixed_string;
    ]

let dept_schema () =
  S.Schema.create ~key:"dept_id"
    [
      S.Schema.column "dept_id" S.Schema.Int;
      S.Schema.column "budget" S.Schema.Int;
    ]

let setup_catalog () =
  let env = S.Env.create () in
  let disk = S.Disk.create ~env ~page_size:512 in
  let rng = U.Xorshift.create 11 in
  let emp =
    S.Relation.of_tuples ~disk ~name:"emp" ~schema:(emp_schema ())
      (List.init 100 (fun i ->
           S.Tuple.encode (emp_schema ())
             [
               S.Tuple.VInt i;
               S.Tuple.VInt (U.Xorshift.int rng 10);
               S.Tuple.VInt (30_000 + U.Xorshift.int rng 70_000);
               S.Tuple.VStr (Printf.sprintf "e%03d" i);
             ]))
  in
  let dept =
    S.Relation.of_tuples ~disk ~name:"dept" ~schema:(dept_schema ())
      (List.init 10 (fun i ->
           S.Tuple.encode (dept_schema ())
             [ S.Tuple.VInt i; S.Tuple.VInt (100_000 * (i + 1)) ]))
  in
  let cat = P.Catalog.create () in
  P.Catalog.register cat emp;
  P.Catalog.register cat dept;
  cat

(* Each corpus entry is (code, ill-formed expression): the checker must
   flag it with exactly that error code. *)
let plan_error_corpus () =
  [
    ("PLAN001", A.scan "nosuch");
    ( "PLAN002",
      A.select ~column:"salry" ~op:A.Gt ~value:(S.Tuple.VInt 1) (A.scan "emp")
    );
    ( "PLAN003",
      A.select ~column:"salary" ~op:A.Eq ~value:(S.Tuple.VStr "high")
        (A.scan "emp") );
    ( "PLAN004",
      A.join ~left_key:"name" ~right_key:"dept_id" (A.scan "emp")
        (A.scan "dept") );
    ("PLAN005", A.set_op A.Union (A.scan "emp") (A.scan "dept"));
    ( "PLAN006",
      A.aggregate ~group_by:"dept" ~aggs:[ E.Aggregate.Sum "name" ]
        (A.scan "emp") );
    ("PLAN007", A.aggregate ~group_by:"dept" ~aggs:[] (A.scan "emp"));
    ("PLAN008", A.project ~columns:[] (A.scan "emp"));
    ("PLAN009", A.project ~columns:[ "id"; "id" ] (A.scan "emp"));
  ]

let test_plan_error_corpus () =
  let cat = setup_catalog () in
  List.iter
    (fun (code, expr) ->
      let diags = P.Plan_check.check cat expr in
      checkb (code ^ " flagged") true (D.has_code code diags);
      checkb (code ^ " is an error") true (D.has_errors diags);
      checkb (code ^ " rejected") false (P.Plan_check.ok cat expr);
      match P.Plan_check.check_schema cat expr with
      | Ok _ -> Alcotest.failf "%s: check_schema accepted an invalid plan" code
      | Error ds -> checkb (code ^ " schema diags") true (D.has_code code ds))
    (plan_error_corpus ())

let plan_warning_corpus () =
  [
    ( "PLAN101",
      A.join ~left_key:"dept" ~right_key:"dept_id"
        (A.project ~distinct:true ~columns:[ "id"; "dept" ] (A.scan "emp"))
        (A.scan "dept") );
    ( "PLAN102",
      A.select ~column:"salary" ~op:A.Gt
        ~value:(S.Tuple.VInt 10_000_000)
        (A.scan "emp") );
    ( "PLAN103",
      A.aggregate ~group_by:"dept" ~aggs:[ E.Aggregate.Count ]
        (A.order_by ~column:"salary" (A.scan "emp")) );
    ( "PLAN104",
      A.select ~column:"name" ~op:A.Eq
        ~value:(S.Tuple.VStr "far-too-long-for-8")
        (A.scan "emp") );
  ]

let test_plan_warning_corpus () =
  let cat = setup_catalog () in
  List.iter
    (fun (code, expr) ->
      let diags = P.Plan_check.check cat expr in
      checkb (code ^ " flagged") true (D.has_code code diags);
      checkb (code ^ " is not an error") false (D.has_errors diags);
      (* Warnings never block execution. *)
      checkb (code ^ " still ok") true (P.Plan_check.ok cat expr))
    (plan_warning_corpus ())

let test_plan_valid_accepted () =
  let cat = setup_catalog () in
  let good =
    [
      A.scan "emp";
      A.select ~column:"salary" ~op:A.Gt ~value:(S.Tuple.VInt 50_000)
        (A.scan "emp");
      A.project ~columns:[ "id"; "name" ] (A.scan "emp");
      A.join ~left_key:"dept" ~right_key:"dept_id" (A.scan "emp")
        (A.scan "dept");
      A.aggregate ~group_by:"dept" ~aggs:[ E.Aggregate.Count ] (A.scan "emp");
      A.order_by ~column:"salary" (A.scan "emp");
      A.set_op A.Union (A.scan "emp") (A.scan "emp");
    ]
  in
  List.iter
    (fun expr ->
      checkb "valid plan accepted" true (P.Plan_check.ok cat expr);
      match P.Plan_check.check_schema cat expr with
      | Ok _ -> ()
      | Error ds ->
        Alcotest.failf "valid plan rejected: %s" (D.summary ds))
    good

let test_plan_no_cascade () =
  (* A bad scan deep in the tree produces exactly one error, not a chain
     of follow-on unknown-column noise. *)
  let cat = setup_catalog () in
  let expr =
    A.aggregate ~group_by:"dept" ~aggs:[ E.Aggregate.Count ]
      (A.select ~column:"salary" ~op:A.Gt ~value:(S.Tuple.VInt 1)
         (A.scan "nosuch"))
  in
  let diags = P.Plan_check.check cat expr in
  checki "single diagnostic" 1 (List.length diags);
  checkb "it is PLAN001" true (D.has_code "PLAN001" diags)

let test_plan_paths () =
  let cat = setup_catalog () in
  let expr =
    A.join ~left_key:"dept" ~right_key:"dept_id" (A.scan "emp")
      (A.scan "nosuch")
  in
  match P.Plan_check.check cat expr with
  | [ d ] -> Alcotest.(check string) "path" "$.right" d.D.path
  | ds -> Alcotest.failf "expected one diagnostic, got %s" (D.summary ds)

let test_executor_and_sql_checked () =
  let cat = setup_catalog () in
  let cfg = P.Optimizer.default_config in
  (match
     P.Executor.query_checked cat cfg
       (A.select ~column:"salry" ~op:A.Gt ~value:(S.Tuple.VInt 1)
          (A.scan "emp"))
   with
  | Ok _ -> Alcotest.fail "query_checked accepted a bad plan"
  | Error ds -> checkb "PLAN002 surfaced" true (D.has_code "PLAN002" ds));
  (match
     P.Executor.query_checked cat cfg
       (A.select ~column:"salary" ~op:A.Gt ~value:(S.Tuple.VInt 50_000)
          (A.scan "emp"))
   with
  | Ok rel -> checkb "rows" true (S.Relation.ntuples rel > 0)
  | Error ds -> Alcotest.failf "good plan rejected: %s" (D.summary ds));
  (match P.Sql.parse_checked cat "SELEC id FROM emp" with
  | Ok _ -> Alcotest.fail "parse_checked accepted garbage"
  | Error ds -> checkb "SQL001" true (D.has_code "SQL001" ds));
  (match P.Sql.parse_checked cat "SELECT salry FROM emp" with
  | Ok _ -> Alcotest.fail "parse_checked accepted bad column"
  | Error ds -> checkb "PLAN002 via sql" true (D.has_code "PLAN002" ds));
  match P.Sql.parse_checked cat "SELECT id FROM emp WHERE salary > 50000" with
  | Ok _ -> ()
  | Error ds -> Alcotest.failf "good sql rejected: %s" (D.summary ds)

let test_db_query_raises () =
  let db = Mmdb.Db.create () in
  Mmdb.Db.create_table db ~name:"t" ~schema:(emp_schema ());
  Mmdb.Db.insert_many db ~table:"t"
    [
      [
        S.Tuple.VInt 1; S.Tuple.VInt 1; S.Tuple.VInt 40_000; S.Tuple.VStr "a";
      ];
    ];
  checkb "bad plan raises" true
    (try
       ignore (Mmdb.Db.query db (A.scan "nosuch"));
       false
     with Invalid_argument m ->
       (* The rendered diagnostics carry the stable code. *)
       contains m "PLAN001");
  checki "check reports" 1 (List.length (Mmdb.Db.check db (A.scan "nosuch")))

(* ------------------------------------------------------------------ *)
(* Log corpus                                                          *)
(* ------------------------------------------------------------------ *)

(* A well-formed transactional log produced by hand. *)
let clean_log () =
  [
    L.Begin { txn = 1; lsn = 1 };
    L.Update { txn = 1; lsn = 2; slot = 0; old_value = 0; new_value = 5 };
    L.Commit { txn = 1; lsn = 3 };
    L.Ckpt_begin { lsn = 4 };
    L.Ckpt_end { lsn = 5 };
    L.Begin { txn = 2; lsn = 6 };
    L.Update { txn = 2; lsn = 7; slot = 1; old_value = 0; new_value = -5 };
    L.Abort { txn = 2; lsn = 8 };
  ]

let test_log_clean_accepted () =
  checkb "clean complete" true (V.Log_check.ok ~complete:true (clean_log ()));
  checki "no diags" 0 (List.length (V.Log_check.audit ~complete:true (clean_log ())))

(* Corruption injector: each entry mutates the clean log and names the
   violation class the auditor must flag. *)
let corruptions () =
  let base = clean_log () in
  let drop p = List.filteri (fun i _ -> i <> p) base in
  [
    (* Swap the first two records: the Update now precedes its Begin and
       carries a smaller LSN. *)
    ( "LOG001",
      match base with
      | a :: b :: rest -> b :: a :: rest
      | _ -> assert false );
    ("LOG002", drop 0);
    (* Begin gone -> its Update is orphaned. *)
    ("LOG003", drop 0 |> List.filteri (fun i _ -> i <> 0));
    (* Begin and Update gone -> bare Commit. *)
    ( "LOG004",
      base
      @ [
          L.Update { txn = 1; lsn = 9; slot = 0; old_value = 5; new_value = 6 };
        ] );
    ("LOG005", base @ [ L.Begin { txn = 1; lsn = 9 } ]);
    ("LOG006", base @ [ L.Commit { txn = 1; lsn = 9 } ]);
    ("LOG007", base @ [ L.Ckpt_end { lsn = 9 } ]);
  ]

let test_log_corruption_injector () =
  List.iter
    (fun (code, log) ->
      let diags = V.Log_check.audit log in
      checkb (code ^ " flagged") true (D.has_code code diags);
      checkb (code ^ " is error") true (D.has_errors diags))
    (corruptions ())

let test_log_duplicate_lsn_flagged () =
  let log =
    [ L.Begin { txn = 1; lsn = 1 }; L.Commit { txn = 1; lsn = 1 } ]
  in
  checkb "equal lsn flagged" true (D.has_code "LOG001" (V.Log_check.audit log))

let test_log_completeness_flags () =
  let dangling = [ L.Ckpt_begin { lsn = 1 } ] in
  checkb "LOG008 when complete" true
    (D.has_code "LOG008" (V.Log_check.audit ~complete:true dangling));
  checkb "tolerated when truncated" true (V.Log_check.ok dangling);
  let open_txn = [ L.Begin { txn = 7; lsn = 1 } ] in
  let diags = V.Log_check.audit ~complete:true open_txn in
  checkb "LOG101 when complete" true (D.has_code "LOG101" diags);
  checkb "LOG101 is a warning" false (D.has_errors diags);
  checkb "tolerated when truncated" true
    (V.Log_check.audit open_txn = [])

let test_log_real_scenarios () =
  (* Every Recovery_manager scenario must produce a protocol-clean log,
     checkpoint brackets included. *)
  List.iter
    (fun (n_txns, every, crash_after) ->
      let cfg =
        {
          R.Recovery_manager.default_config with
          R.Recovery_manager.n_txns;
          R.Recovery_manager.checkpoint_every = Some every;
          R.Recovery_manager.crash_after;
        }
      in
      let o = R.Recovery_manager.run cfg in
      checkb "scenario consistent" true o.R.Recovery_manager.consistent;
      checkb "submitted log clean" true
        (V.Log_check.ok ~complete:true o.R.Recovery_manager.log_records);
      checkb "durable log clean" true
        (V.Log_check.ok o.R.Recovery_manager.durable_log))
    [ (400, 100, None); (400, 100, Some 250); (600, 150, None) ];
  (* Incremental driver, with explicit checkpoint brackets. *)
  let db = Mmdb.Txn_db.create ~nrecords:50 () in
  for i = 0 to 19 do
    ignore (Mmdb.Txn_db.transact db [ (i mod 50, 5); ((i + 1) mod 50, -5) ]);
    Mmdb.Txn_db.advance db 1e-3
  done;
  ignore (Mmdb.Txn_db.transact_abort db [ (3, 100) ]);
  ignore (Mmdb.Txn_db.checkpoint db);
  Mmdb.Txn_db.flush db;
  let log = Mmdb.Txn_db.log_records db in
  checkb "txn_db log has checkpoint bracket" true
    (List.exists (function L.Ckpt_begin _ -> true | _ -> false) log
    && List.exists (function L.Ckpt_end _ -> true | _ -> false) log);
  checki "txn_db log clean" 0
    (List.length (V.Log_check.audit ~complete:true log));
  (* Recovery still round-trips with bracketed logs. *)
  Mmdb.Txn_db.crash db;
  ignore (Mmdb.Txn_db.recover db);
  let total = ref 0 in
  for slot = 0 to 49 do
    total := !total + Mmdb.Txn_db.balance db slot
  done;
  checki "money conserved" 0 !total

(* ------------------------------------------------------------------ *)
(* Pool sanitizer                                                      *)
(* ------------------------------------------------------------------ *)

let pool_setup capacity =
  let env = S.Env.create () in
  let disk = S.Disk.create ~env ~page_size:64 in
  let pids = Array.init 10 (fun _ -> S.Disk.alloc disk) in
  let pool = S.Buffer_pool.create ~disk ~capacity S.Buffer_pool.Lru in
  (pids, pool)

let test_pool_clean () =
  let pids, pool = pool_setup 4 in
  Array.iter (fun pid -> ignore (S.Buffer_pool.get pool pid)) pids;
  ignore (S.Buffer_pool.get pool pids.(0));
  S.Buffer_pool.mark_dirty pool pids.(0);
  S.Buffer_pool.flush_all pool;
  checki "clean pool" 0 (List.length (V.Pool_check.audit pool))

let test_pool_pin_leak () =
  let pids, pool = pool_setup 4 in
  ignore (S.Buffer_pool.pin pool pids.(0));
  let diags = V.Pool_check.audit pool in
  checkb "POOL001" true (D.has_code "POOL001" diags);
  checkb "mid-operation audit tolerates pins" true
    (V.Pool_check.ok ~expect_unpinned:false pool);
  S.Buffer_pool.unpin pool pids.(0);
  checkb "clean after unpin" true (V.Pool_check.ok pool)

let test_pool_unpin_underflow () =
  let pids, pool = pool_setup 4 in
  ignore (S.Buffer_pool.get pool pids.(0));
  S.Buffer_pool.unpin pool pids.(0);
  S.Buffer_pool.unpin pool pids.(1);
  let diags = V.Pool_check.audit pool in
  checkb "POOL002" true (D.has_code "POOL002" diags)

let test_pool_pins_block_eviction () =
  let pids, pool = pool_setup 2 in
  ignore (S.Buffer_pool.pin pool pids.(0));
  ignore (S.Buffer_pool.get pool pids.(1));
  ignore (S.Buffer_pool.get pool pids.(2));
  ignore (S.Buffer_pool.get pool pids.(3));
  checkb "pinned page survives pressure" true
    (S.Buffer_pool.is_resident pool pids.(0));
  checki "pin count" 1 (S.Buffer_pool.pin_count pool pids.(0));
  (* All frames pinned: the next fault cannot evict. *)
  ignore (S.Buffer_pool.pin pool pids.(1));
  checkb "all-pinned fault raises" true
    (try
       ignore (S.Buffer_pool.get pool pids.(4));
       false
     with Invalid_argument _ -> true);
  S.Buffer_pool.unpin pool pids.(0);
  S.Buffer_pool.unpin pool pids.(1);
  ignore (S.Buffer_pool.get pool pids.(4));
  checkb "evicts again after unpin" true (S.Buffer_pool.is_resident pool pids.(4))

let test_pool_random_workload () =
  (* 500 random pin/unpin spans over an LRU pool, half of them dirtying
     the frame: the protocol and the dirty accounting stay clean. *)
  let env = S.Env.create () in
  let disk = S.Disk.create ~env ~page_size:64 in
  let pids = Array.init 32 (fun _ -> S.Disk.alloc disk) in
  let pool = S.Buffer_pool.create ~disk ~capacity:8 S.Buffer_pool.Lru in
  let rng = U.Xorshift.create 13 in
  for _ = 1 to 500 do
    let pid = pids.(U.Xorshift.int rng 32) in
    let data = S.Buffer_pool.pin pool pid in
    if U.Xorshift.int rng 2 = 0 then begin
      Bytes.set data 0 'x';
      S.Buffer_pool.mark_dirty pool pid
    end;
    S.Buffer_pool.unpin pool pid
  done;
  S.Buffer_pool.flush_all pool;
  checkb "random workload clean" true (V.Pool_check.ok pool)

let test_pool_accounting_across_drop () =
  let pids, pool = pool_setup 4 in
  ignore (S.Buffer_pool.get pool pids.(0));
  S.Buffer_pool.mark_dirty pool pids.(0);
  S.Buffer_pool.mark_dirty pool pids.(0);
  (* no double count *)
  ignore (S.Buffer_pool.get pool pids.(1));
  S.Buffer_pool.mark_dirty pool pids.(1);
  S.Buffer_pool.flush pool pids.(0);
  S.Buffer_pool.drop_all pool;
  let st = S.Buffer_pool.stats pool in
  checki "dirtied" 2 st.S.Buffer_pool.dirtied;
  checki "writebacks" 1 st.S.Buffer_pool.writebacks;
  checki "dropped dirty" 1 st.S.Buffer_pool.dropped_dirty;
  checkb "accounting invariant" true (V.Pool_check.ok pool)

(* ------------------------------------------------------------------ *)
(* Unified audit                                                       *)
(* ------------------------------------------------------------------ *)

let idx_schema () =
  S.Schema.create ~key:"k"
    [ S.Schema.column "k" S.Schema.Int; S.Schema.column "v" S.Schema.Int ]

let mk sch k v = S.Tuple.encode sch [ S.Tuple.VInt k; S.Tuple.VInt v ]

let test_audit_run_all () =
  let sch = idx_schema () in
  let env = S.Env.create () in
  let avl = I.Avl.create ~env ~schema:sch () in
  let btree = I.Btree.create ~env ~schema:sch ~page_size:256 () in
  let bst = I.Paged_bst.create ~env ~schema:sch () in
  (* The same mixed insert/delete stream into each structure. *)
  let workload insert delete =
    let rng = U.Xorshift.create 2026 in
    for _ = 1 to 2000 do
      let k = U.Xorshift.int rng 800 in
      if U.Xorshift.int rng 4 < 3 then insert (mk sch k (k * 7))
      else ignore (delete (S.Tuple.encode_int_key sch k))
    done
  in
  workload (I.Avl.insert avl) (I.Avl.delete avl);
  workload (I.Btree.insert btree) (I.Btree.delete btree);
  workload (I.Paged_bst.insert bst) (I.Paged_bst.delete bst);
  let heap =
    let rng = U.Xorshift.create 7 in
    U.Heap.of_array ~cmp:compare
      (Array.init 500 (fun _ -> U.Xorshift.int rng 10_000))
  in
  let _, pool = pool_setup 4 in
  let results =
    V.Audit.run_all
      [
        V.Audit.Btree ("btree", btree);
        V.Audit.Avl ("avl", avl);
        V.Audit.Paged_bst ("bst", bst);
        V.Audit.Heap_check ("heap", fun () -> U.Heap.check_invariant heap);
        V.Audit.Pool { name = "pool"; pool; expect_unpinned = true };
        V.Audit.Log
          { name = "log"; complete = true; records = clean_log () };
      ]
  in
  checki "six components" 6 (List.length results);
  List.iter
    (fun (name, diags) ->
      checki (name ^ " clean") 0 (List.length diags))
    results;
  checkb "ok" true
    (V.Audit.ok [ V.Audit.Btree ("btree", btree); V.Audit.Avl ("avl", avl) ]);
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  checkb "report clean" true (V.Audit.report ppf results);
  Format.pp_print_flush ppf ();
  checkb "report mentions summary" true
    (contains (Buffer.contents buf) "0 errors")

let test_audit_flags_violations () =
  let results =
    V.Audit.run_all
      [
        V.Audit.Heap_check ("broken heap", fun () -> false);
        V.Audit.Log
          {
            name = "bad log";
            complete = false;
            records = [ L.Commit { txn = 1; lsn = 1 } ];
          };
      ]
  in
  checkb "not ok" false
    (List.for_all (fun (_, ds) -> not (D.has_errors ds)) results);
  (match List.assoc "broken heap" results with
  | [ d ] -> Alcotest.(check string) "IDX004" "IDX004" d.D.code
  | ds -> Alcotest.failf "expected one diag, got %s" (D.summary ds));
  checkb "LOG003 found" true
    (D.has_code "LOG003" (List.assoc "bad log" results));
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  checkb "report flags" false (V.Audit.report ppf results);
  Format.pp_print_flush ppf ()

let test_db_audit () =
  let db = Mmdb.Db.create () in
  Mmdb.Db.create_table db ~name:"t" ~schema:(idx_schema ());
  Mmdb.Db.insert_many db ~table:"t"
    (List.init 100 (fun i -> [ S.Tuple.VInt i; S.Tuple.VInt (i * i) ]));
  Mmdb.Db.create_index db ~table:"t" Mmdb.Db.Avl_index;
  Mmdb.Db.create_index db ~table:"t" Mmdb.Db.Btree_index;
  let results = Mmdb.Db.audit db in
  checki "two components" 2 (List.length results);
  List.iter (fun (_, ds) -> checki "clean" 0 (List.length ds)) results

(* The string literals passed as [~code:"..."] in [src]. *)
let code_literals src =
  let key = "~code:\"" in
  let k = String.length key in
  let rec go i acc =
    if i + k > String.length src then acc
    else if String.sub src i k = key then
      let j = String.index_from src (i + k) '"' in
      go j (String.sub src (i + k) (j - i - k) :: acc)
    else go (i + 1) acc
  in
  go 0 []

let test_code_catalogue_unique () =
  let codes = List.map fst V.code_catalogue in
  checki "no duplicate codes" (List.length codes)
    (List.length (List.sort_uniq compare codes));
  (* Every code a diagnostic in lib/ is built with is catalogued.  The
     sources sit under lib/ beside dune-project, from the checkout or
     dune's sandbox alike. *)
  let rec root dir =
    if Sys.file_exists (Filename.concat dir "dune-project") then dir
    else if Filename.dirname dir = dir then Alcotest.fail "no dune-project"
    else root (Filename.dirname dir)
  in
  let rec check_dir dir =
    Array.iter
      (fun e ->
        let file = Filename.concat dir e in
        if Sys.is_directory file then check_dir file
        else if Filename.check_suffix e ".ml" then
          List.iter
            (fun c ->
              checkb (Printf.sprintf "%s (%s) catalogued" c file) true
                (List.mem c codes))
            (code_literals
               (In_channel.with_open_bin file In_channel.input_all)))
      (Sys.readdir dir)
  in
  check_dir (Filename.concat (root (Sys.getcwd ())) "lib")

(* ------------------------------------------------------------------ *)
(* Invariant property tests: random insert/delete workloads            *)
(* ------------------------------------------------------------------ *)

module IntMap = Map.Make (Int)

type idx_ops = {
  insert : bytes -> unit;
  delete : bytes -> bool;
  length : unit -> int;
  check : unit -> bool;
}

let property_workload name make_ops seed () =
  let sch = idx_schema () in
  let ops = make_ops sch in
  let rng = U.Xorshift.create seed in
  let model = ref IntMap.empty in
  for batch = 1 to 20 do
    for _ = 1 to 50 do
      let k = U.Xorshift.int rng 300 in
      if U.Xorshift.int rng 3 < 2 then begin
        let v = U.Xorshift.int rng 1_000_000 in
        ops.insert (mk sch k v);
        model := IntMap.add k v !model
      end
      else begin
        let deleted = ops.delete (S.Tuple.encode_int_key sch k) in
        checkb
          (Printf.sprintf "%s batch %d delete %d" name batch k)
          (IntMap.mem k !model) deleted;
        model := IntMap.remove k !model
      end
    done;
    (* The satellite requirement: invariants hold after every batch. *)
    checkb (Printf.sprintf "%s batch %d invariants" name batch) true
      (ops.check ());
    checki (Printf.sprintf "%s batch %d length" name batch)
      (IntMap.cardinal !model) (ops.length ())
  done

let avl_ops sch =
  let env = S.Env.create () in
  let t = I.Avl.create ~env ~schema:sch () in
  {
    insert = I.Avl.insert t;
    delete = I.Avl.delete t;
    length = (fun () -> I.Avl.length t);
    check = (fun () -> I.Avl.check_invariants t);
  }

let btree_ops sch =
  let env = S.Env.create () in
  let t = I.Btree.create ~env ~schema:sch ~page_size:256 () in
  {
    insert = I.Btree.insert t;
    delete = I.Btree.delete t;
    length = (fun () -> I.Btree.length t);
    check = (fun () -> I.Btree.check_invariants t);
  }

let bst_ops sch =
  let env = S.Env.create () in
  let t = I.Paged_bst.create ~env ~schema:sch () in
  {
    insert = I.Paged_bst.insert t;
    delete = I.Paged_bst.delete t;
    length = (fun () -> I.Paged_bst.length t);
    check = (fun () -> I.Paged_bst.check_invariants t);
  }

let test_bst_delete_basics () =
  let sch = idx_schema () in
  let env = S.Env.create () in
  let t = I.Paged_bst.create ~env ~schema:sch () in
  List.iter (fun k -> I.Paged_bst.insert t (mk sch k k))
    [ 50; 30; 70; 20; 40; 60; 80 ];
  checkb "delete leaf" true (I.Paged_bst.delete t (S.Tuple.encode_int_key sch 20));
  checkb "delete one-child" true
    (I.Paged_bst.delete t (S.Tuple.encode_int_key sch 30));
  checkb "delete two-children root" true
    (I.Paged_bst.delete t (S.Tuple.encode_int_key sch 50));
  checkb "delete absent" false
    (I.Paged_bst.delete t (S.Tuple.encode_int_key sch 999));
  checki "length" 4 (I.Paged_bst.length t);
  checkb "ordered" true (I.Paged_bst.check_invariants t);
  List.iter
    (fun k ->
      checkb
        (Printf.sprintf "still finds %d" k)
        true
        (I.Paged_bst.search t (S.Tuple.encode_int_key sch k) <> None))
    [ 40; 60; 70; 80 ]

(* ------------------------------------------------------------------ *)
(* Txn_check: hand-built schedule corpus                               *)
(* ------------------------------------------------------------------ *)

module Sch = R.Schedule
module TC = V.Txn_check

(* Hand-built trace events: time increases with position so the traces
   read naturally. *)
let ev ?key ?lsn ?(domain = 0) ?ver ~t ~txn kind =
  { Sch.time = t; txn; key; lsn; domain; ver; kind }

let grant ?(deps = []) ~t ~txn ~key () =
  ev ~key ~t ~txn (Sch.Grant { deps })

(* A clean two-transaction schedule: t2 takes over key 1 from the
   pre-committed t1 (becoming dependent on it) and both become durable in
   dependency order. *)
let clean_trace () =
  [
    ev ~key:1 ~t:0.001 ~txn:1 Sch.Acquire;
    grant ~t:0.001 ~txn:1 ~key:1 ();
    ev ~key:1 ~t:0.002 ~txn:1 Sch.Read;
    ev ~key:1 ~lsn:2 ~t:0.002 ~txn:1 Sch.Write;
    ev ~key:1 ~t:0.003 ~txn:2 Sch.Acquire;
    ev ~key:1 ~t:0.003 ~txn:2 (Sch.Wait { holder = 1 });
    ev ~t:0.004 ~txn:1 Sch.Precommit;
    ev ~key:1 ~t:0.004 ~txn:1 Sch.Release;
    ev ~key:1 ~t:0.004 ~txn:2 (Sch.Wake { deps = [ 1 ] });
    ev ~key:1 ~t:0.005 ~txn:2 Sch.Read;
    ev ~key:1 ~lsn:5 ~t:0.005 ~txn:2 Sch.Write;
    ev ~t:0.006 ~txn:2 Sch.Precommit;
    ev ~key:1 ~t:0.006 ~txn:2 Sch.Release;
    ev ~t:0.010 ~txn:1 Sch.Commit_durable;
    ev ~t:0.010 ~txn:2 Sch.Commit_durable;
  ]

let clean_log () =
  [
    L.Begin { txn = 1; lsn = 1 };
    L.Update { txn = 1; lsn = 2; slot = 1; old_value = 0; new_value = 10 };
    L.Commit { txn = 1; lsn = 3 };
    L.Begin { txn = 2; lsn = 4 };
    L.Update { txn = 2; lsn = 5; slot = 1; old_value = 10; new_value = 20 };
    L.Commit { txn = 2; lsn = 6 };
  ]

let codes diags = List.sort_uniq compare (List.map (fun d -> d.D.code) diags)

let test_txncheck_clean () =
  let diags = TC.audit ~log:(clean_log ()) (clean_trace ()) in
  Alcotest.(check (list string)) "clean schedule" [] (codes diags);
  checkb "ok" true (TC.ok ~log:(clean_log ()) (clean_trace ()));
  (* Truncated trace: active transactions at end are tolerated. *)
  let truncated =
    [
      ev ~key:1 ~t:0.001 ~txn:1 Sch.Acquire;
      grant ~t:0.001 ~txn:1 ~key:1 ();
      ev ~key:1 ~lsn:2 ~t:0.002 ~txn:1 Sch.Write;
    ]
  in
  Alcotest.(check (list string)) "truncated tolerated" []
    (codes (TC.audit truncated))

(* Mutation corpus: each injected protocol bug must be caught by exactly
   its TXN code. *)

(* Bug: lock released at first unlock instead of held to pre-commit — the
   transaction then acquires another key (2PL violation) and keeps
   touching the released one. *)
let test_txncheck_early_release () =
  let trace =
    [
      grant ~t:0.001 ~txn:1 ~key:1 ();
      ev ~key:1 ~lsn:1 ~t:0.002 ~txn:1 Sch.Write;
      ev ~key:1 ~t:0.003 ~txn:1 Sch.Release;
      grant ~t:0.004 ~txn:1 ~key:2 ();
      ev ~key:1 ~lsn:2 ~t:0.005 ~txn:1 Sch.Write;
      ev ~t:0.006 ~txn:1 Sch.Precommit;
      ev ~key:2 ~t:0.006 ~txn:1 Sch.Release;
    ]
  in
  let cs = codes (TC.check_2pl trace) in
  Alcotest.(check (list string)) "TXN001 + TXN002" [ "TXN001"; "TXN002" ] cs

let test_txncheck_unlocked_access () =
  let trace = [ ev ~key:9 ~t:0.001 ~txn:4 Sch.Read ] in
  Alcotest.(check (list string)) "TXN002" [ "TXN002" ]
    (codes (TC.check_2pl trace))

(* Bug: pre-commit forgets to release (lock leak). *)
let test_txncheck_held_after_precommit () =
  let trace =
    [
      grant ~t:0.001 ~txn:1 ~key:1 ();
      ev ~t:0.002 ~txn:1 Sch.Precommit;
      ev ~t:0.003 ~txn:1 Sch.Commit_durable;
    ]
  in
  Alcotest.(check (list string)) "TXN003" [ "TXN003" ]
    (codes (TC.check_2pl trace));
  (* Same leak, trace ends before durability. *)
  let trace2 =
    [ grant ~t:0.001 ~txn:1 ~key:1 (); ev ~t:0.002 ~txn:1 Sch.Precommit ]
  in
  Alcotest.(check (list string)) "TXN003 at end of trace" [ "TXN003" ]
    (codes (TC.check_2pl trace2))

let test_txncheck_precommitted_acquires () =
  let trace =
    [
      grant ~t:0.001 ~txn:1 ~key:1 ();
      ev ~t:0.002 ~txn:1 Sch.Precommit;
      ev ~key:1 ~t:0.002 ~txn:1 Sch.Release;
      ev ~key:2 ~t:0.003 ~txn:1 Sch.Acquire;
      grant ~t:0.003 ~txn:1 ~key:2 ();
    ]
  in
  let diags = TC.check_2pl trace in
  Alcotest.(check (list string)) "TXN004" [ "TXN004" ] (codes diags);
  checki "deduplicated per txn/key" 1 (List.length diags)

let test_txncheck_precommitted_aborts () =
  let trace =
    [
      grant ~t:0.001 ~txn:1 ~key:1 ();
      ev ~t:0.002 ~txn:1 Sch.Precommit;
      ev ~key:1 ~t:0.002 ~txn:1 Sch.Release;
      ev ~t:0.003 ~txn:1 Sch.Abort;
    ]
  in
  Alcotest.(check (list string)) "TXN005" [ "TXN005" ]
    (codes (TC.check_2pl trace))

let test_txncheck_deadlock_cycle () =
  let trace =
    [
      grant ~t:0.001 ~txn:1 ~key:1 ();
      grant ~t:0.002 ~txn:2 ~key:2 ();
      ev ~key:2 ~t:0.003 ~txn:1 (Sch.Wait { holder = 2 });
      ev ~key:1 ~t:0.004 ~txn:2 (Sch.Wait { holder = 1 });
    ]
  in
  let diags = TC.check_deadlock trace in
  checkb "TXN006 reported" true (D.has_code "TXN006" diags);
  checki "one cycle, once" 1 (List.length diags);
  let msg = (List.hd diags).D.message in
  checkb "cycle witness names both hops" true
    (contains msg "txn 1 waits for key 2 held by txn 2"
    && contains msg "txn 2 waits for key 1 held by txn 1")

let test_txncheck_lock_order_lint () =
  (* Opposite acquisition orders but no overlap in time: no deadlock this
     run, still a latent one. *)
  let trace =
    [
      grant ~t:0.001 ~txn:1 ~key:1 ();
      grant ~t:0.002 ~txn:1 ~key:2 ();
      ev ~key:1 ~t:0.003 ~txn:1 Sch.Release;
      ev ~key:2 ~t:0.003 ~txn:1 Sch.Release;
      grant ~t:0.004 ~txn:2 ~key:2 ();
      grant ~t:0.005 ~txn:2 ~key:1 ();
    ]
  in
  let diags = TC.check_deadlock trace in
  checkb "no deadlock" false (D.has_code "TXN006" diags);
  checkb "TXN101 warning" true (D.has_code "TXN101" diags);
  checkb "warning severity" false (D.has_errors diags)

(* Bug: a dropped conflict edge — two committed transactions write the
   same two keys in opposite orders (not conflict-serializable). *)
let test_txncheck_serializability_cycle () =
  let trace =
    [
      ev ~key:1 ~lsn:1 ~t:0.001 ~txn:1 Sch.Write;
      ev ~key:1 ~lsn:2 ~t:0.002 ~txn:2 Sch.Write;
      ev ~key:2 ~lsn:3 ~t:0.003 ~txn:2 Sch.Write;
      ev ~key:2 ~lsn:4 ~t:0.004 ~txn:1 Sch.Write;
      ev ~t:0.005 ~txn:1 Sch.Precommit;
      ev ~t:0.005 ~txn:2 Sch.Precommit;
    ]
  in
  let diags = TC.check_serializability trace in
  checkb "TXN007 reported" true (D.has_code "TXN007" diags);
  checki "one cycle" 1 (List.length diags);
  checkb "witness edge present" true
    (contains (List.hd diags).D.message "key 1");
  (* If one of the two aborts instead, its accesses drop out and the
     cycle disappears. *)
  let aborted =
    List.map
      (fun (e : Sch.event) ->
        if e.Sch.txn = 2 && e.Sch.kind = Sch.Precommit then
          { e with Sch.kind = Sch.Abort }
        else e)
      trace
  in
  Alcotest.(check (list string)) "aborted txn excluded" []
    (codes (TC.check_serializability aborted))

(* Bug: committing a dependant before its dependency. *)
let test_txncheck_dependency_durability () =
  let trace =
    [
      grant ~t:0.001 ~txn:1 ~key:1 ();
      ev ~t:0.002 ~txn:1 Sch.Precommit;
      ev ~key:1 ~t:0.002 ~txn:1 Sch.Release;
      grant ~deps:[ 1 ] ~t:0.003 ~txn:2 ~key:1 ();
      ev ~t:0.004 ~txn:2 Sch.Precommit;
      ev ~key:1 ~t:0.004 ~txn:2 Sch.Release;
      (* Dependant durable first: invariant broken. *)
      ev ~t:0.005 ~txn:2 Sch.Commit_durable;
      ev ~t:0.007 ~txn:1 Sch.Commit_durable;
    ]
  in
  let diags = TC.check_dependencies trace in
  Alcotest.(check (list string)) "TXN008" [ "TXN008" ] (codes diags);
  checkb "names the dependency" true
    (contains (List.hd diags).D.message "dependency 1")

let test_txncheck_dependency_log_order () =
  let base_trace =
    [
      grant ~t:0.001 ~txn:1 ~key:1 ();
      ev ~t:0.002 ~txn:1 Sch.Precommit;
      ev ~key:1 ~t:0.002 ~txn:1 Sch.Release;
      grant ~deps:[ 1 ] ~t:0.003 ~txn:2 ~key:1 ();
      ev ~t:0.004 ~txn:2 Sch.Precommit;
      ev ~key:1 ~t:0.004 ~txn:2 Sch.Release;
    ]
  in
  (* Commit records submitted in the wrong order. *)
  let bad_order =
    [
      L.Begin { txn = 2; lsn = 3 };
      L.Commit { txn = 2; lsn = 4 };
      L.Begin { txn = 1; lsn = 1 };
      L.Commit { txn = 1; lsn = 2 };
    ]
  in
  checkb "commit order violation" true
    (D.has_code "TXN008" (TC.check_dependencies ~log:bad_order base_trace));
  (* Dependency's commit record missing entirely. *)
  let missing = [ L.Begin { txn = 2; lsn = 1 }; L.Commit { txn = 2; lsn = 2 } ] in
  checkb "missing dep commit" true
    (D.has_code "TXN008" (TC.check_dependencies ~log:missing base_trace));
  (* Dependency aborted although a dependant committed on it. *)
  let dep_aborted =
    [
      L.Begin { txn = 1; lsn = 1 };
      L.Abort { txn = 1; lsn = 2 };
      L.Begin { txn = 2; lsn = 3 };
      L.Commit { txn = 2; lsn = 4 };
    ]
  in
  checkb "aborted dependency" true
    (D.has_code "TXN008" (TC.check_dependencies ~log:dep_aborted base_trace));
  (* Correct order is clean. *)
  let good =
    [
      L.Begin { txn = 1; lsn = 1 };
      L.Commit { txn = 1; lsn = 2 };
      L.Begin { txn = 2; lsn = 3 };
      L.Commit { txn = 2; lsn = 4 };
    ]
  in
  Alcotest.(check (list string)) "good log clean" []
    (codes (TC.check_dependencies ~log:good base_trace))

let test_txncheck_code_catalogue () =
  let cat = TC.code_catalogue in
  checki "nine codes" 9 (List.length cat);
  List.iter
    (fun c ->
      checkb (c ^ " catalogued") true (List.mem_assoc c cat))
    [
      "TXN001"; "TXN002"; "TXN003"; "TXN004"; "TXN005"; "TXN006"; "TXN007";
      "TXN008"; "TXN101";
    ];
  (* And the layer-wide catalogue picked them up without collisions. *)
  let all = List.map fst V.code_catalogue in
  checki "no duplicate codes"
    (List.length all)
    (List.length (List.sort_uniq compare all))

(* ------------------------------------------------------------------ *)
(* Txn_fuzz: seeded interleaved workloads                              *)
(* ------------------------------------------------------------------ *)

let test_fuzz_clean_seeds () =
  List.iter
    (fun seed ->
      let o = V.Txn_fuzz.run ~seed () in
      checkb
        (Printf.sprintf "seed %d: no errors" seed)
        false
        (D.has_errors o.V.Txn_fuzz.diags);
      checkb
        (Printf.sprintf "seed %d: contention exercised" seed)
        true (o.V.Txn_fuzz.waits > 0);
      checkb
        (Printf.sprintf "seed %d: work done" seed)
        true
        (o.V.Txn_fuzz.committed > 0);
      checki
        (Printf.sprintf "seed %d: all transactions accounted" seed)
        40
        (o.V.Txn_fuzz.committed + o.V.Txn_fuzz.aborted))
    [ 11; 22; 33; 44; 55 ]

let test_fuzz_determinism () =
  let a = V.Txn_fuzz.run ~seed:77 () in
  let b = V.Txn_fuzz.run ~seed:77 () in
  checkb "same schedule" true (a.V.Txn_fuzz.events = b.V.Txn_fuzz.events);
  checkb "same log" true (a.V.Txn_fuzz.log = b.V.Txn_fuzz.log)

let test_fuzz_scramble_finds_deadlocks () =
  (* Scrambled acquisition order: the driver runs into real deadlocks and
     the waits-for analyzer must report them. *)
  let o = V.Txn_fuzz.run ~scramble:true ~seed:11 () in
  checkb "driver hit deadlocks" true (o.V.Txn_fuzz.deadlocks > 0);
  checkb "TXN006 reported" true (D.has_code "TXN006" o.V.Txn_fuzz.diags);
  checkb "TXN101 lint fired" true (D.has_code "TXN101" o.V.Txn_fuzz.diags);
  (* Deadlocks are the only error class a correct lock manager can
     produce here: no 2PL / dependency / serializability violations. *)
  List.iter
    (fun c ->
      checkb (c ^ " absent") false (D.has_code c o.V.Txn_fuzz.diags))
    [ "TXN001"; "TXN002"; "TXN003"; "TXN004"; "TXN005"; "TXN008" ]

let test_fuzz_crash_truncation () =
  let o = V.Txn_fuzz.run ~crash:true ~seed:11 () in
  checkb "crashed" true o.V.Txn_fuzz.crashed;
  checkb "truncated trace accepted" false (D.has_errors o.V.Txn_fuzz.diags)

let test_fuzz_audit_component () =
  let o = V.Txn_fuzz.run ~seed:22 () in
  let results =
    V.Audit.run_all
      [
        V.Audit.Schedule
          {
            name = "fuzz schedule";
            events = o.V.Txn_fuzz.events;
            log = o.V.Txn_fuzz.log;
          };
      ]
  in
  checkb "audit ok" true
    (V.Audit.ok
       [
         V.Audit.Schedule
           {
             name = "fuzz schedule";
             events = o.V.Txn_fuzz.events;
             log = o.V.Txn_fuzz.log;
           };
       ]);
  match results with
  | [ (name, diags) ] ->
    Alcotest.(check string) "component name" "fuzz schedule" name;
    checkb "no error diags" false (D.has_errors diags)
  | _ -> Alcotest.fail "expected one component"

(* ------------------------------------------------------------------ *)
(* Per-transaction LSN runs                                             *)
(* ------------------------------------------------------------------ *)

(* Every transaction's records, in log order, carry consecutive LSNs
   starting at its Begin and ending at its Commit or Abort — the rule
   [Txn.surviving_log]'s demotion of incomplete transactions relies
   on. *)
let lsn_runs_ok log =
  let by_txn = Hashtbl.create 64 in
  List.iter
    (fun r ->
      match L.txn r with
      | Some tx ->
        Hashtbl.replace by_txn tx
          (r :: Option.value ~default:[] (Hashtbl.find_opt by_txn tx))
      | None -> ())
    log;
  Hashtbl.fold
    (fun _ rev_records ok ->
      ok
      &&
      match (List.rev rev_records, rev_records) with
      | (L.Begin { lsn = first; _ } :: _ as records), (L.Commit _ | L.Abort _) :: _
        ->
        List.for_all2
          (fun i r -> L.lsn r = first + i)
          (List.init (List.length records) Fun.id)
          records
      | _ -> false)
    by_txn true

module O = Mmdb_overload.Overload

(* Random mixes on [Txn_db]: plain transfers, rolled-back transfers,
   transfers whose deadline passed before their first lock (OVLD004) or
   during their updates (OVLD006), and checkpoints. *)
let qcheck_txn_db_lsn_runs =
  let op =
    QCheck.(triple (int_bound 4) (int_bound 19) (int_bound 19))
  in
  QCheck.Test.make ~name:"Txn_db transactions log consecutive LSN runs"
    ~count:100
    QCheck.(list_of_size Gen.(int_range 1 40) op)
    (fun ops ->
      let db = Mmdb.Txn_db.create ~nrecords:20 ~work_per_update:1e-3 () in
      List.iter
        (fun (kind, a, b) ->
          let updates = if a = b then [ (a, 3) ] else [ (a, 3); (b, -3) ] in
          let now = Mmdb.Txn_db.now db in
          match kind with
          | 0 -> ignore (Mmdb.Txn_db.transact db updates)
          | 1 -> ignore (Mmdb.Txn_db.transact_abort db updates)
          | 2 | 3 -> (
            let deadline =
              if kind = 2 then O.Deadline.at (now -. 1e-3)
              else O.Deadline.make ~now ~budget:5e-4
            in
            match Mmdb.Txn_db.transact ~deadline db updates with
            | _ -> ()
            | exception O.Shed _ -> ())
          | _ -> ignore (Mmdb.Txn_db.checkpoint db))
        ops;
      lsn_runs_ok (Mmdb.Txn_db.log_records db))

let test_fuzz_lsn_runs () =
  List.iter
    (fun seed ->
      List.iter
        (fun (what, o) ->
          checkb
            (Printf.sprintf "seed %d %s: consecutive LSN runs" seed what)
            true
            (lsn_runs_ok o.V.Txn_fuzz.log))
        [
          ("sorted", V.Txn_fuzz.run ~seed ());
          ("scrambled", V.Txn_fuzz.run ~scramble:true ~seed ());
          ("spike", V.Txn_fuzz.run ~spike:true ~txns:120 ~seed ());
          ("crash", V.Txn_fuzz.run ~crash:true ~seed ());
        ])
    [ 11; 22; 33; 77 ]

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "mmdb verify"
    [
      ( "plan-check",
        [
          Alcotest.test_case "error corpus" `Quick test_plan_error_corpus;
          Alcotest.test_case "warning corpus" `Quick test_plan_warning_corpus;
          Alcotest.test_case "valid plans accepted" `Quick
            test_plan_valid_accepted;
          Alcotest.test_case "no cascading errors" `Quick test_plan_no_cascade;
          Alcotest.test_case "tree paths" `Quick test_plan_paths;
          Alcotest.test_case "executor and sql integration" `Quick
            test_executor_and_sql_checked;
          Alcotest.test_case "db.query raises on bad plan" `Quick
            test_db_query_raises;
        ] );
      ( "log-check",
        [
          Alcotest.test_case "clean log accepted" `Quick
            test_log_clean_accepted;
          Alcotest.test_case "corruption injector" `Quick
            test_log_corruption_injector;
          Alcotest.test_case "duplicate lsn" `Quick
            test_log_duplicate_lsn_flagged;
          Alcotest.test_case "completeness flags" `Quick
            test_log_completeness_flags;
          Alcotest.test_case "real recovery scenarios" `Quick
            test_log_real_scenarios;
        ] );
      ( "pool-check",
        [
          Alcotest.test_case "clean pool" `Quick test_pool_clean;
          Alcotest.test_case "pin leak" `Quick test_pool_pin_leak;
          Alcotest.test_case "unpin underflow" `Quick
            test_pool_unpin_underflow;
          Alcotest.test_case "pins block eviction" `Quick
            test_pool_pins_block_eviction;
          Alcotest.test_case "accounting across drop" `Quick
            test_pool_accounting_across_drop;
          Alcotest.test_case "random pin/dirty workload" `Quick
            test_pool_random_workload;
        ] );
      ( "audit",
        [
          Alcotest.test_case "run_all clean" `Quick test_audit_run_all;
          Alcotest.test_case "flags violations" `Quick
            test_audit_flags_violations;
          Alcotest.test_case "db audit" `Quick test_db_audit;
          Alcotest.test_case "code catalogue unique" `Quick
            test_code_catalogue_unique;
        ] );
      ( "property",
        [
          Alcotest.test_case "avl random workload" `Quick
            (property_workload "avl" avl_ops 101);
          Alcotest.test_case "btree random workload" `Quick
            (property_workload "btree" btree_ops 202);
          Alcotest.test_case "paged-bst random workload" `Quick
            (property_workload "bst" bst_ops 303);
          Alcotest.test_case "paged-bst delete basics" `Quick
            test_bst_delete_basics;
        ] );
      ( "txn-check",
        [
          Alcotest.test_case "clean schedule" `Quick test_txncheck_clean;
          Alcotest.test_case "early release (TXN001/TXN002)" `Quick
            test_txncheck_early_release;
          Alcotest.test_case "unlocked access (TXN002)" `Quick
            test_txncheck_unlocked_access;
          Alcotest.test_case "held after precommit (TXN003)" `Quick
            test_txncheck_held_after_precommit;
          Alcotest.test_case "precommitted acquires (TXN004)" `Quick
            test_txncheck_precommitted_acquires;
          Alcotest.test_case "precommitted aborts (TXN005)" `Quick
            test_txncheck_precommitted_aborts;
          Alcotest.test_case "deadlock cycle (TXN006)" `Quick
            test_txncheck_deadlock_cycle;
          Alcotest.test_case "lock-order lint (TXN101)" `Quick
            test_txncheck_lock_order_lint;
          Alcotest.test_case "serializability cycle (TXN007)" `Quick
            test_txncheck_serializability_cycle;
          Alcotest.test_case "dependency durability (TXN008)" `Quick
            test_txncheck_dependency_durability;
          Alcotest.test_case "dependency log order (TXN008)" `Quick
            test_txncheck_dependency_log_order;
          Alcotest.test_case "code catalogue" `Quick
            test_txncheck_code_catalogue;
        ] );
      ( "lsn-runs",
        [
          QCheck_alcotest.to_alcotest qcheck_txn_db_lsn_runs;
          Alcotest.test_case "txn fuzz runs" `Quick test_fuzz_lsn_runs;
        ] );
      ( "txn-fuzz",
        [
          Alcotest.test_case "clean seeds audit clean" `Quick
            test_fuzz_clean_seeds;
          Alcotest.test_case "deterministic" `Quick test_fuzz_determinism;
          Alcotest.test_case "scramble finds deadlocks" `Quick
            test_fuzz_scramble_finds_deadlocks;
          Alcotest.test_case "crash truncation tolerated" `Quick
            test_fuzz_crash_truncation;
          Alcotest.test_case "audit component" `Quick
            test_fuzz_audit_component;
        ] );
    ]
