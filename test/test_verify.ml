(* Tests for the verification layer: the static plan checker's
   ill-formed-plan corpus (one case per error code), the WAL auditor's
   log-corruption injector (one per violation class), the unified audit
   driver, and invariant property tests over random insert/search
   workloads. *)

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
  (* The same insert stream, with repeated keys, into each structure. *)
  let workload insert =
    let rng = U.Xorshift.create 2026 in
    for _ = 1 to 2000 do
      let k = U.Xorshift.int rng 800 in
      insert (mk sch k (k * 7))
    done
  in
  workload (I.Avl.insert avl);
  workload (I.Btree.insert btree);
  let results =
    [
      ("btree", V.Audit.btree btree);
      ("avl", V.Audit.avl avl);
      ("log", V.Log_check.audit ~complete:true (clean_log ()));
    ]
  in
  List.iter
    (fun (name, diags) ->
      checki (name ^ " clean") 0 (List.length diags))
    results;
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  checkb "report clean" true (V.Audit.report ppf results);
  Format.pp_print_flush ppf ();
  checkb "report mentions summary" true
    (contains (Buffer.contents buf) "0 errors")

let test_audit_flags_violations () =
  (* Search hands back the stored tuple itself, so rewriting its key in
     place breaks the tree's order without going through the tree. *)
  let sch = idx_schema () in
  let avl = I.Avl.create ~env:(S.Env.create ()) ~schema:sch () in
  for k = 1 to 10 do
    I.Avl.insert avl (mk sch k k)
  done;
  (match I.Avl.search avl (S.Tuple.encode_int_key sch 5) with
  | Some tup -> S.Tuple.set_int sch tup 0 100
  | None -> Alcotest.fail "key 5 missing");
  let results =
    [
      ("broken avl", V.Audit.avl avl);
      ("bad log", V.Log_check.audit [ L.Commit { txn = 1; lsn = 1 } ]);
    ]
  in
  checkb "not ok" false
    (List.for_all (fun (_, ds) -> not (D.has_errors ds)) results);
  (match List.assoc "broken avl" results with
  | [ d ] -> Alcotest.(check string) "IDX002" "IDX002" d.D.code
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

(* The shrinking-property harness on a toy property over int lists. *)
let test_audit_property_harness () =
  let gen = QCheck2.Gen.(list_size (int_range 0 20) (int_bound 100)) in
  let counted = ref 0 and shrinking = ref 0 in
  let short ~counted:c l =
    if c then incr counted else incr shrinking;
    List.length l < 3
  in
  (match V.Audit.property ~name:"toy" ~seed:5 ~count:200 gen short with
  | Some (l, None) -> checki "shrunk to length 3" 3 (List.length l)
  | Some (_, Some e) -> Alcotest.failf "raised %s" (Printexc.to_string e)
  | None -> Alcotest.fail "no counterexample");
  checkb "drawn runs counted" true (!counted >= 1 && !counted <= 200);
  checkb "shrink runs not counted" true (!shrinking > 0);
  counted := 0;
  let holds ~counted:c _ =
    if c then incr counted;
    true
  in
  checkb "a holding property has no counterexample" true
    (V.Audit.property ~name:"toy" ~seed:5 ~count:50 gen holds = None);
  checki "every drawn case counted" 50 !counted;
  (match
     V.Audit.property ~name:"toy" ~seed:5 ~count:200 gen (fun ~counted:_ l ->
         if List.length l >= 2 then failwith "boom" else true)
   with
  | Some (l, Some (Failure m)) ->
    Alcotest.(check string) "exception carried" "boom" m;
    checki "shrunk to length 2" 2 (List.length l)
  | _ -> Alcotest.fail "expected a raised counterexample");
  Alcotest.check_raises "count 0" (Invalid_argument "toy: count < 1")
    (fun () ->
      ignore (V.Audit.property ~name:"toy" ~seed:5 ~count:0 gen holds))

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
(* Invariant property tests: random insert/search workloads            *)
(* ------------------------------------------------------------------ *)

module IntMap = Map.Make (Int)

type idx_ops = {
  insert : bytes -> unit;
  search : bytes -> bytes option;
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
        let found =
          Option.map
            (fun tup -> S.Tuple.get_int sch tup 1)
            (ops.search (S.Tuple.encode_int_key sch k))
        in
        checkb
          (Printf.sprintf "%s batch %d search %d" name batch k)
          true
          (found = IntMap.find_opt k !model)
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
    search = I.Avl.search t;
    length = (fun () -> I.Avl.length t);
    check = (fun () -> I.Avl.check_invariants t);
  }

let btree_ops sch =
  let env = S.Env.create () in
  let t = I.Btree.create ~env ~schema:sch ~page_size:256 () in
  {
    insert = I.Btree.insert t;
    search = I.Btree.search t;
    length = (fun () -> I.Btree.length t);
    check = (fun () -> I.Btree.check_invariants t);
  }

(* ------------------------------------------------------------------ *)
(* Schedule_check: hand-built schedule corpus                          *)
(* ------------------------------------------------------------------ *)

module Sch = R.Schedule
module SC = V.Schedule_check

(* Hand-built trace events: time increases with position so the traces
   read naturally. *)
let ev ?key ?(domain = 0) ?ver ~t ~txn kind =
  { Sch.time = t; txn; key; domain; ver; kind }

(* Each corpus case targets one analysis: it selects that analysis's
   codes from the audit. *)
let select codes diags = List.filter (fun d -> List.mem d.D.code codes) diags
let protocol = select [ "TXN001"; "TXN002"; "TXN003"; "TXN004"; "TXN005" ]
let waits_for = select [ "TXN006"; "TXN101" ]
let serializability = select [ "TXN007" ]
let dependencies = select [ "TXN008" ]

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
    ev ~key:1 ~t:0.002 ~txn:1 Sch.Write;
    ev ~key:1 ~t:0.003 ~txn:2 Sch.Acquire;
    ev ~key:1 ~t:0.003 ~txn:2 (Sch.Wait { holder = 1 });
    ev ~t:0.004 ~txn:1 Sch.Precommit;
    ev ~key:1 ~t:0.004 ~txn:1 Sch.Release;
    ev ~key:1 ~t:0.004 ~txn:2 (Sch.Wake { deps = [ 1 ] });
    ev ~key:1 ~t:0.005 ~txn:2 Sch.Read;
    ev ~key:1 ~t:0.005 ~txn:2 Sch.Write;
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
  let diags = SC.audit ~log:(clean_log ()) (clean_trace ()) in
  Alcotest.(check (list string)) "clean schedule" [] (codes diags);
  checkb "ok" true (SC.ok ~log:(clean_log ()) (clean_trace ()));
  (* Truncated trace: active transactions at end are tolerated. *)
  let truncated =
    [
      ev ~key:1 ~t:0.001 ~txn:1 Sch.Acquire;
      grant ~t:0.001 ~txn:1 ~key:1 ();
      ev ~key:1 ~t:0.002 ~txn:1 Sch.Write;
    ]
  in
  Alcotest.(check (list string)) "truncated tolerated" []
    (codes (SC.audit truncated))

(* Mutation corpus: each injected protocol bug must be caught by exactly
   its TXN code. *)

(* Bug: lock released at first unlock instead of held to pre-commit — the
   transaction then acquires another key (2PL violation) and keeps
   touching the released one. *)
let test_txncheck_early_release () =
  let trace =
    [
      grant ~t:0.001 ~txn:1 ~key:1 ();
      ev ~key:1 ~t:0.002 ~txn:1 Sch.Write;
      ev ~key:1 ~t:0.003 ~txn:1 Sch.Release;
      grant ~t:0.004 ~txn:1 ~key:2 ();
      ev ~key:1 ~t:0.005 ~txn:1 Sch.Write;
      ev ~t:0.006 ~txn:1 Sch.Precommit;
      ev ~key:2 ~t:0.006 ~txn:1 Sch.Release;
    ]
  in
  let cs = codes (protocol (SC.audit trace)) in
  Alcotest.(check (list string)) "TXN001 + TXN002" [ "TXN001"; "TXN002" ] cs

let test_txncheck_unlocked_access () =
  let trace = [ ev ~key:9 ~t:0.001 ~txn:4 Sch.Read ] in
  Alcotest.(check (list string)) "TXN002" [ "TXN002" ]
    (codes (protocol (SC.audit trace)))

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
    (codes (protocol (SC.audit trace)));
  (* Same leak, trace ends before durability. *)
  let trace2 =
    [ grant ~t:0.001 ~txn:1 ~key:1 (); ev ~t:0.002 ~txn:1 Sch.Precommit ]
  in
  Alcotest.(check (list string)) "TXN003 at end of trace" [ "TXN003" ]
    (codes (protocol (SC.audit trace2)))

(* Bug: abort forgets to release.  The Abort event comes before the
   Release events, so a clean abort holds its locks only until they
   follow; one that never releases holds them at the end of the trace. *)
let test_txncheck_held_after_abort () =
  let trace =
    [
      grant ~t:0.001 ~txn:1 ~key:1 ();
      ev ~key:1 ~t:0.002 ~txn:1 Sch.Write;
      ev ~t:0.003 ~txn:1 Sch.Abort;
    ]
  in
  let diags = protocol (SC.audit trace) in
  Alcotest.(check (list string)) "TXN003" [ "TXN003" ] (codes diags);
  checkb "names the abort" true
    (List.exists
       (fun d -> d.D.message = "transaction 1 aborted but never released key 1")
       diags);
  let released = trace @ [ ev ~key:1 ~t:0.003 ~txn:1 Sch.Release ] in
  Alcotest.(check (list string)) "released abort clean" []
    (codes (protocol (SC.audit released)))

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
  let diags = protocol (SC.audit trace) in
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
    (codes (protocol (SC.audit trace)))

let test_txncheck_deadlock_cycle () =
  let trace =
    [
      grant ~t:0.001 ~txn:1 ~key:1 ();
      grant ~t:0.002 ~txn:2 ~key:2 ();
      ev ~key:2 ~t:0.003 ~txn:1 (Sch.Wait { holder = 2 });
      ev ~key:1 ~t:0.004 ~txn:2 (Sch.Wait { holder = 1 });
    ]
  in
  let diags = waits_for (SC.audit trace) in
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
  let diags = waits_for (SC.audit trace) in
  checkb "no deadlock" false (D.has_code "TXN006" diags);
  checkb "TXN101 warning" true (D.has_code "TXN101" diags);
  checkb "warning severity" false (D.has_errors diags)

(* Bug: a dropped conflict edge — two committed transactions write the
   same two keys in opposite orders (not conflict-serializable). *)
let test_txncheck_serializability_cycle () =
  let trace =
    [
      ev ~key:1 ~t:0.001 ~txn:1 Sch.Write;
      ev ~key:1 ~t:0.002 ~txn:2 Sch.Write;
      ev ~key:2 ~t:0.003 ~txn:2 Sch.Write;
      ev ~key:2 ~t:0.004 ~txn:1 Sch.Write;
      ev ~t:0.005 ~txn:1 Sch.Precommit;
      ev ~t:0.005 ~txn:2 Sch.Precommit;
    ]
  in
  let diags = serializability (SC.audit trace) in
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
    (codes (serializability (SC.audit aborted)))

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
  let diags = dependencies (SC.audit trace) in
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
    (D.has_code "TXN008"
       (dependencies (SC.audit ~log:bad_order base_trace)));
  (* Dependency's commit record missing entirely. *)
  let missing = [ L.Begin { txn = 2; lsn = 1 }; L.Commit { txn = 2; lsn = 2 } ] in
  checkb "missing dep commit" true
    (D.has_code "TXN008"
       (dependencies (SC.audit ~log:missing base_trace)));
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
    (D.has_code "TXN008"
       (dependencies (SC.audit ~log:dep_aborted base_trace)));
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
    (codes (dependencies (SC.audit ~log:good base_trace)))

let test_txncheck_code_catalogue () =
  let cat =
    List.filter
      (fun (c, _) -> String.starts_with ~prefix:"TXN" c)
      SC.code_catalogue
  in
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

(* The fuzzer's case at [seed] with 40 sorted transactions on one
   domain; tests set the other fields explicitly. *)
let case seed =
  { V.Txn_fuzz.seed; txns = 40; domains = 1; scramble = false;
    crash = false; spike = false; inject = [] }

let test_fuzz_clean_seeds () =
  List.iter
    (fun seed ->
      let o = V.Txn_fuzz.run (case seed) in
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
  let a = V.Txn_fuzz.run (case 77) in
  let b = V.Txn_fuzz.run (case 77) in
  checkb "same schedule" true (a.V.Txn_fuzz.events = b.V.Txn_fuzz.events);
  checkb "same log" true (a.V.Txn_fuzz.log = b.V.Txn_fuzz.log)

let test_fuzz_scramble_finds_deadlocks () =
  (* Scrambled acquisition order: the driver runs into real deadlocks and
     the waits-for analyzer must report them. *)
  let o = V.Txn_fuzz.run { (case 11) with scramble = true } in
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
  let o = V.Txn_fuzz.run { (case 11) with crash = true } in
  checkb "crashed" true o.V.Txn_fuzz.crashed;
  checkb "truncated trace accepted" false (D.has_errors o.V.Txn_fuzz.diags)

(* The fuzzer's schedule, audited directly and reported by name. *)
let test_fuzz_audit_component () =
  let o = V.Txn_fuzz.run (case 22) in
  let diags = SC.audit ~log:o.V.Txn_fuzz.log o.V.Txn_fuzz.events in
  checkb "no error diags" false (D.has_errors diags);
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  checkb "report clean" true (V.Audit.report ppf [ ("fuzz schedule", diags) ]);
  Format.pp_print_flush ppf ();
  checkb "report names the schedule" true
    (contains (Buffer.contents buf) "fuzz schedule")

(* Every finding of a scrambled four-domain fuzz run with all five race
   injections, as (code, path).  Protocol and race findings come out of
   one audit; the snapshot control's versioned ghosts (txns 1000008 and
   1000009 on key 21) raise RACE005 and no TXN002. *)
let test_fuzz_pinned_findings () =
  let o =
    V.Txn_fuzz.run
      { (case 11) with
        domains = 4;
        scramble = true;
        inject = [ `Ww; `Rw; `Unguarded; `Release_no_acquire; `Snapshot ];
      }
  in
  let keys txn key = Printf.sprintf "txn=%d key=%d" txn key in
  let pairs =
    [ (4, 7); (8, 13); (1, 12); (1, 8); (0, 13); (7, 9); (7, 13); (12, 13);
      (3, 9); (7, 14); (10, 13); (0, 4) ]
  in
  let expected =
    List.map (fun (t, k) -> ("TXN002", keys t k))
      [ (1000000, 17); (1000001, 17); (1000002, 18); (1000003, 18);
        (1000004, 19); (1000005, 19) ]
    @ [ ("TXN006", "cycle=1->3"); ("TXN006", "cycle=32->35") ]
    @ List.map (fun (a, b) -> ("TXN101", Printf.sprintf "keys=%d,%d" a b)) pairs
    @ [
        ("RACE001", "key=17 dom=6"); ("RACE003", "key=17 dom=6");
        ("RACE002", "key=18 dom=8"); ("RACE003", "key=18 dom=8");
        ("RACE003", "key=19 dom=10"); ("RACE004", "key=20 dom=11");
        ("RACE005", "key=21 dom=14");
      ]
  in
  Alcotest.(check (list (pair string string)))
    "findings" (List.sort compare expected)
    (List.sort compare
       (List.map (fun (d : D.t) -> (d.D.code, d.D.path)) o.V.Txn_fuzz.diags))

(* The property over drawn cases as [mmdb_cli check fuzz] runs it (seed
   11, 500 cases): every feature is drawn, and the property holds, so
   every injected race is reported. *)
let test_fuzz_drawn_coverage () =
  let drawn = ref [] in
  let holds ~counted c =
    if counted then drawn := c :: !drawn;
    V.Txn_fuzz.violations c (V.Txn_fuzz.run c) = []
  in
  checkb "no counterexample" true
    (V.Audit.property ~name:"fuzz" ~seed:11 ~count:500 V.Txn_fuzz.gen holds
    = None);
  checki "cases" 500 (List.length !drawn);
  List.iter
    (fun (what, p) -> checkb (what ^ " drawn") true (List.exists p !drawn))
    ([
       ("4 domains", fun (c : V.Txn_fuzz.case) -> c.domains = 4);
       ("scramble", fun c -> c.scramble);
       ("crash", fun c -> c.crash);
       ("spike", fun c -> c.spike);
     ]
    @ List.map
        (fun (what, i) ->
          (what, fun (c : V.Txn_fuzz.case) -> List.mem i c.inject))
        [ ("ww", `Ww); ("rw", `Rw); ("unguarded", `Unguarded);
          ("release", `Release_no_acquire); ("snapshot", `Snapshot) ])

(* Two shrunk cases the property met first, when it allowed TXN006 only
   after the driver's own victim kill.  A scrambled spike deadlocks
   transactions 0 and 1 and a lock-wait timeout (OVLD004) breaks the
   cycle; a scrambled crash stops the run while 7 and 8 are deadlocked.
   Both cycles are real, so TXN006 is their one error. *)
let test_fuzz_deadlock_without_victim () =
  List.iter
    (fun (what, c, cycle) ->
      let o = V.Txn_fuzz.run c in
      checki (what ^ ": no victim killed") 0 o.V.Txn_fuzz.deadlocks;
      Alcotest.(check (list string))
        (what ^ ": the property holds") [] (V.Txn_fuzz.violations c o);
      Alcotest.(check (list (pair string string)))
        (what ^ ": the cycle is the one error")
        [ ("TXN006", cycle) ]
        (List.map (fun (d : D.t) -> (d.D.code, d.D.path))
           (D.errors o.V.Txn_fuzz.diags)))
    [
      ( "timeout",
        { (case 131163) with txns = 11; scramble = true; spike = true },
        "cycle=0->1" );
      ( "crash",
        { (case 879523) with txns = 12; scramble = true; crash = true },
        "cycle=7->8" );
    ]

(* The MVCC simulator's trace holds only versioned accesses: version
   discipline judges them, so the lock-protocol codes stay quiet. *)
let test_mvcc_trace_audits_clean () =
  let r =
    R.Mvcc_sim.run ~seed:11 ~n_writers:2_000 ~record_schedule:true
      R.Mvcc_sim.Versioning
  in
  checkb "events recorded" true (r.R.Mvcc_sim.events <> []);
  Alcotest.(check (list string)) "no findings" []
    (codes (SC.audit r.R.Mvcc_sim.events))

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
          ("sorted", V.Txn_fuzz.run (case seed));
          ("scrambled", V.Txn_fuzz.run { (case seed) with scramble = true });
          ("spike", V.Txn_fuzz.run { (case seed) with spike = true; txns = 120 });
          ("crash", V.Txn_fuzz.run { (case seed) with crash = true });
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
      ( "audit",
        [
          Alcotest.test_case "run_all clean" `Quick test_audit_run_all;
          Alcotest.test_case "flags violations" `Quick
            test_audit_flags_violations;
          Alcotest.test_case "db audit" `Quick test_db_audit;
          Alcotest.test_case "shrinking-property harness" `Quick
            test_audit_property_harness;
          Alcotest.test_case "code catalogue unique" `Quick
            test_code_catalogue_unique;
        ] );
      ( "property",
        [
          Alcotest.test_case "avl random workload" `Quick
            (property_workload "avl" avl_ops 101);
          Alcotest.test_case "btree random workload" `Quick
            (property_workload "btree" btree_ops 202);
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
          Alcotest.test_case "held after abort (TXN003)" `Quick
            test_txncheck_held_after_abort;
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
          Alcotest.test_case "pinned findings, all injections" `Quick
            test_fuzz_pinned_findings;
          Alcotest.test_case "drawn cases cover every feature" `Quick
            test_fuzz_drawn_coverage;
          Alcotest.test_case "deadlock with no victim killed" `Quick
            test_fuzz_deadlock_without_victim;
          Alcotest.test_case "MVCC trace audits clean" `Quick
            test_mvcc_trace_audits_clean;
        ] );
    ]
