(* mmdb command-line tool: SQL over a built-in demo database, the
   verification passes, and the diagnostic-code catalogue.

     mmdb_cli sql [--explain] [--limit N] "SELECT ..."
     mmdb_cli repl [--demo | --db FILE]
     mmdb_cli check [schedule|fuzz|mvcc|torture|model|lint ...] [--seed N]
                    [--points N] [--tolerance F] [-v]
     mmdb_cli codes

   [check] runs the verification passes (all six by default) and exits
   0 when they are clean, 1 on a finding, 2 on bad input.  The paper's
   analyses are bench/main.exe's experiments and the examples/ programs.
*)

module U = Mmdb_util
module S = Mmdb_storage
module R = Mmdb_recovery
module P = Mmdb_planner

open Cmdliner

(* Every command's EXIT STATUS section: 0, the command's own [codes], 2
   for bad input and 125 for a bug.  cmdliner's defaults would list 124
   for a malformed command line, which [main] turns into 2, and 123,
   which no command returns. *)
let exits ?(bad = "on a malformed command line.") codes =
  (Cmd.Exit.info 0 ~doc:"on success."
  :: List.map (fun (code, doc) -> Cmd.Exit.info code ~doc) codes)
  @ [
      Cmd.Exit.info 2 ~doc:bad;
      Cmd.Exit.info Cmd.Exit.internal_error
        ~doc:"on unexpected internal errors (bugs).";
    ]

(* ------------------------------------------------------------------ *)
(* sql                                                                 *)
(* ------------------------------------------------------------------ *)

let demo_db () =
  let db = Mmdb.Db.create ~mem_pages:256 () in
  let emp =
    S.Schema.create ~key:"id"
      [
        S.Schema.column "id" S.Schema.Int;
        S.Schema.column "dept" S.Schema.Int;
        S.Schema.column "salary" S.Schema.Int;
        S.Schema.column ~width:16 "name" S.Schema.Fixed_string;
      ]
  in
  let dept =
    S.Schema.create ~key:"dept_id"
      [
        S.Schema.column "dept_id" S.Schema.Int;
        S.Schema.column "budget" S.Schema.Int;
        S.Schema.column ~width:16 "dname" S.Schema.Fixed_string;
      ]
  in
  Mmdb.Db.create_table db ~name:"emp" ~schema:emp;
  Mmdb.Db.create_table db ~name:"dept" ~schema:dept;
  let rng = U.Xorshift.create 1984 in
  Mmdb.Db.insert_many db ~table:"emp"
    (List.init 5000 (fun i ->
         [
           S.Tuple.VInt i;
           S.Tuple.VInt (U.Xorshift.int rng 20);
           S.Tuple.VInt (30_000 + U.Xorshift.int rng 90_000);
           S.Tuple.VStr (Printf.sprintf "emp%04d" i);
         ]));
  Mmdb.Db.insert_many db ~table:"dept"
    (List.init 20 (fun i ->
         [
           S.Tuple.VInt i;
           S.Tuple.VInt ((i + 1) * 50_000);
           S.Tuple.VStr (Printf.sprintf "dept%02d" i);
         ]));
  db

let print_rows rows limit =
  List.iteri
    (fun i row ->
      if i < limit then
        print_endline
          (String.concat " | "
             (List.map
                (function
                  | S.Tuple.VInt v -> string_of_int v
                  | S.Tuple.VStr s -> s)
                row)))
    rows;
  let total = List.length rows in
  if total > limit then Printf.printf "... (%d rows total)\n" total
  else Printf.printf "(%d rows)\n" total

let run_sql text explain_only limit =
  let db = demo_db () in
  Printf.printf
    "demo database: emp(id, dept, salary, name) x 5000, dept(dept_id, \
     budget, dname) x 20\n\n";
  match P.Sql.parse_checked (Mmdb.Db.catalog db) text with
  | Error diags ->
    Format.printf "%a@." Mmdb_util.Diag.pp_list diags;
    1
  | Ok expr ->
    (match P.Plan_check.check (Mmdb.Db.catalog db) expr with
    | [] -> ()
    | warnings -> Format.printf "%a@." Mmdb_util.Diag.pp_list warnings);
    Printf.printf "plan:\n%s\n" (Mmdb.Db.explain db expr);
    if explain_only then 0
    else begin
      print_rows (Mmdb.Db.query_rows db expr) limit;
      0
    end

let sql_cmd =
  let text =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"QUERY" ~doc:"The SQL text.")
  in
  let explain_only =
    Arg.(
      value & flag
      & info [ "explain" ]
          ~doc:
            "Check the query statically and show the plan without executing \
             it; exits 1 when the plan checker reports errors.")
  in
  let limit =
    Arg.(value & opt int 20 & info [ "limit" ] ~doc:"Max rows to print.")
  in
  Cmd.v
    (Cmd.info "sql" ~doc:"Run a SQL query against a built-in demo database."
       ~exits:
         (exits
            [
              ( 1,
                "when the query does not parse or the plan checker reports \
                 an error." );
            ]))
    Term.(const run_sql $ text $ explain_only $ limit)

(* ------------------------------------------------------------------ *)
(* check                                                               *)
(* ------------------------------------------------------------------ *)

module V = Mmdb_verify

(* What the passes read.  [seed] and [points] are [None] when not given
   on the command line, so each pass keeps its own default. *)
type check_opts = {
  seed : int option; points : int option; tolerance : float; verbose : bool;
}

(* Each pass prints its findings through [Audit.report] and returns its
   verdict, which is the report's "no error-severity finding" except
   where noted. *)
let report groups = V.Audit.report Format.std_formatter groups

(* A deterministic Txn_db workload with schedule recording on: a batch of
   transfers, one explicit abort, a fuzzy checkpoint, more transfers, a
   crash and recovery. *)
let schedule_pass _ =
  let db = Mmdb.Txn_db.create ~record_schedule:true ~nrecords:64 () in
  for i = 0 to 11 do
    let a = i * 5 mod 64 and b = ((i * 5) + 17) mod 64 in
    ignore (Mmdb.Txn_db.transact db [ (a, 25); (b, -25) ]);
    Mmdb.Txn_db.advance db 0.0003
  done;
  ignore (Mmdb.Txn_db.transact_abort db [ (3, 999); (4, -999) ]);
  ignore (Mmdb.Txn_db.checkpoint db);
  for i = 0 to 7 do
    ignore (Mmdb.Txn_db.transact db [ (i, 7); (i + 20, -7) ]);
    Mmdb.Txn_db.advance db 0.0003
  done;
  Mmdb.Txn_db.flush db;
  Mmdb.Txn_db.crash db;
  ignore (Mmdb.Txn_db.recover db);
  let events = Mmdb.Txn_db.schedule db and log = Mmdb.Txn_db.log_records db in
  Format.printf "built-in Txn_db workload: %d schedule events, %d log records@."
    (List.length events) (List.length log);
  report [ ("txn schedule", V.Schedule_check.audit ~log events) ]

(* A drawn pass: [check] on [points] cases from [gen] as one shrinking
   property, which holds on a case when [check] returns no broken
   clause.  It fails only on a counterexample, and prints it shrunk, as
   the [call] that replays it, with the clauses it broke and its
   findings. *)
let drawn_pass o ~name ~points ~what ~call gen check =
  let drawn = ref 0 in
  let holds ~counted c =
    if counted then incr drawn;
    fst (check c) = []
  in
  match
    V.Audit.property ~name ~seed:(Option.value o.seed ~default:11)
      ~count:(Option.value o.points ~default:points) gen holds
  with
  | None ->
    Format.printf "%s: the property holds on %d drawn %s@." name !drawn what;
    true
  | Some (c, raised) ->
    Format.printf "counterexample (shrunk): %s@." (call c);
    (match raised with
    | Some e -> Format.printf "  raised %s@." (Printexc.to_string e)
    | None ->
      let broken, diags = check c in
      List.iter (Format.printf "  %s@.") broken;
      ignore (report [ (name ^ " counterexample", diags) ]));
    false

let fuzz_pass o =
  drawn_pass o ~name:"fuzz" ~points:500 ~what:"schedules"
    ~call:(Format.asprintf "Txn_fuzz.run %a" V.Txn_fuzz.pp_case)
    V.Txn_fuzz.gen
    (fun c ->
      let r = V.Txn_fuzz.run c in
      (V.Txn_fuzz.violations c r, r.V.Txn_fuzz.diags))

let mvcc_pass o =
  drawn_pass o ~name:"mvcc" ~points:20 ~what:"versioning runs"
    ~call:(fun (seed, n_writers) ->
      Printf.sprintf
        "Mvcc_sim.run ~seed:%d ~n_writers:%d ~record_schedule:true Versioning"
        seed n_writers)
    (* The first reader window opens at 2 simulated s, after about 1,900
       writers at 950 arrivals/s: from 1,901 writers up every case runs a
       snapshot. *)
    QCheck2.Gen.(pair (no_shrink (int_bound 1_000_000)) (int_range 1_901 4_000))
    (fun (seed, n_writers) ->
      let r =
        R.Mvcc_sim.run ~seed ~n_writers ~record_schedule:true
          R.Mvcc_sim.Versioning
      in
      let diags = V.Schedule_check.audit r.R.Mvcc_sim.events in
      ( List.filter_map
          (fun (bad, clause) -> if bad then Some clause else None)
          [
            (r.R.Mvcc_sim.reader_count < 1, "no reader took a snapshot");
            ( not r.R.Mvcc_sim.snapshots_consistent,
              "a snapshot is inconsistent" );
            (diags <> [], "the version-store trace has findings");
          ],
        diags ))

let torture_pass o =
  let r = V.Torture.run ?seed:o.seed ?count:o.points () in
  (* No diagnostics: the pass fails only on silent corruption, and then
     prints the shrunk case. *)
  Format.printf "%a" V.Torture.pp r;
  V.Torture.ok r

let model_pass o =
  let cases =
    V.Model_check.run_suite ?seed:o.seed ~tolerance_scale:o.tolerance ()
  in
  if o.verbose then
    List.iter
      (fun (c : V.Model_check.case) ->
        Format.printf "%s@." c.V.Model_check.name;
        List.iter
          (Format.printf "  @[<v>%a@]@." V.Model_check.pp_report)
          c.V.Model_check.reports)
      cases;
  report
    (List.map
       (fun (c : V.Model_check.case) ->
         (c.V.Model_check.name, V.Model_check.case_diags c))
       cases)

let lint_pass o =
  match V.Lint.scan_lib () with
  | Error m -> invalid_arg m
  | Ok (found, parse_diags) ->
    if o.verbose then begin
      Format.printf "lint inventory (lib/):@.";
      V.Lint.pp_inventory Format.std_formatter found
    end;
    Format.printf "lint: %d findings@." (List.length found);
    report [ ("lint lib/", parse_diags @ V.Lint.diags_of_findings found) ]

let passes =
  [
    ("schedule", schedule_pass); ("fuzz", fuzz_pass); ("mvcc", mvcc_pass);
    ("torture", torture_pass); ("model", model_pass); ("lint", lint_pass);
  ]

(* Run the selected passes (all six when none is named) in catalogue
   order and print each verdict.  Exit 0 when every pass is clean, 1 when
   one fails, 2 on bad input: an unknown pass or an out-of-range number,
   which the library entry points reject with [Invalid_argument]. *)
let check names seed points tolerance verbose =
  let run_pass o ok (name, pass) =
    let pass_ok = pass o in
    Format.printf "%s: %s@.@." name (if pass_ok then "ok" else "FAIL");
    ok && pass_ok
  in
  let known = List.map fst passes in
  try
    List.iter
      (fun n ->
        if not (List.mem n known) then
          invalid_arg
            ("unknown pass `" ^ n ^ "' (expected " ^ String.concat ", " known
           ^ ")"))
      names;
    let o = { seed; points; tolerance; verbose } in
    let selected =
      List.filter (fun (n, _) -> names = [] || List.mem n names) passes
    in
    if List.fold_left (run_pass o) true selected then 0 else 1
  with Invalid_argument m ->
    prerr_endline ("check: " ^ m);
    2

let check_cmd =
  let names =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"PASS"
          ~doc:
            "A pass to run: $(b,schedule), $(b,fuzz), $(b,mvcc), \
             $(b,torture), $(b,model) or $(b,lint). Default: all six.")
  in
  let flag names doc = Arg.(value & flag & info names ~doc) in
  let opt c default name doc = Arg.(value & opt c default & info [ name ] ~doc) in
  let seed =
    opt Arg.(some int) None "seed"
      "PRNG seed for every selected pass. Default: 11 for fuzz and mvcc, 7 \
       for torture, 42 for model."
  in
  let points =
    opt Arg.(some int) None "points"
      "Cases to draw in each drawn pass (each fuzz case one schedule, each \
       mvcc case one simulation, each torture case one crash-recovery run \
       with its crash-free probes). Default: 500 for fuzz, 20 for mvcc, \
       2000 for torture."
  in
  let tolerance =
    opt Arg.float 1.0 "tolerance"
      "Model: scale every declared tolerance band; above 1 widens, below 1 \
       tightens. Must be positive."
  in
  let verbose =
    flag [ "v"; "verbose" ]
      "Model: print every node's predicted vs observed breakdown. Lint: \
       print the whole inventory, justified findings included."
  in
  Cmd.v
    (Cmd.info "check"
       ~exits:
         (exits
            ~bad:
              "on bad input: an unknown pass, an out-of-range number or a \
               malformed flag."
            [
              ( 1,
                "on an error-severity finding, silent corruption, or a \
                 missed injection." );
            ])
       ~doc:
         "Run the verification passes and report their diagnostics. \
          $(b,schedule) audits a built-in Txn_db schedule against Section \
          5.2's protocol (2PL to pre-commit, deadlocks, serializability, \
          group-commit dependencies) and for races; $(b,fuzz) audits drawn \
          schedules (transactions, domains, scrambled lock order, a crash, \
          an overload spike, injected races) the same way; $(b,mvcc) \
          audits drawn runs of the versioning engine for snapshot \
          discipline; $(b,torture) crashes the recovery stack at drawn \
          points (strategy, faults, crash instant, a restart crash and the \
          replay configuration). The three drawn passes shrink a failing \
          case and print it as a call that replays it. $(b,model) checks \
          the operators against the Section 3 cost model; $(b,lint) is the \
          static lint over lib/. Exits 0 when every selected pass is clean; \
          1 on an error-severity finding, silent corruption, or a missed \
          injection; 2 on bad input, malformed flags included.")
    Term.(const check $ names $ seed $ points $ tolerance $ verbose)

(* ------------------------------------------------------------------ *)
(* codes                                                               *)
(* ------------------------------------------------------------------ *)

let print_codes () =
  List.iter print_endline
    [
      "# Diagnostic codes";
      "";
      "Every stable code the checks in this repository emit. Generated by";
      "`mmdb_cli codes` from `Mmdb_verify.code_catalogue`; `dune runtest`";
      "fails when this file differs from it (`dune promote` accepts an";
      "intended change). Codes marked (warning) are reported as warnings.";
      "";
      "| Code | Meaning |";
      "|---|---|";
    ];
  List.iter
    (fun (code, meaning) -> Printf.printf "| %s | %s |\n" code meaning)
    V.code_catalogue;
  0

let codes_cmd =
  Cmd.v
    (Cmd.info "codes" ~exits:(exits [])
       ~doc:
         "Print the diagnostic-code catalogue as the Markdown of CODES.md: \
          every stable code with its one-line meaning.")
    Term.(const print_codes $ const ())

(* ------------------------------------------------------------------ *)
(* repl                                                                *)
(* ------------------------------------------------------------------ *)

let repl_help () =
  print_endline
    "statements: SELECT/INSERT/DELETE/UPDATE/CREATE TABLE/DROP TABLE\n\
     dot commands:\n\
    \  .tables            list tables\n\
    \  .schema TABLE      show a table's schema\n\
    \  .explain QUERY     show the plan without running\n\
    \  .save PATH         write the database to a file\n\
    \  .load PATH         replace the database from a file\n\
    \  .demo              load the built-in demo tables\n\
    \  .help              this text\n\
    \  .quit              exit"

let repl initial_db =
  let db = ref (match initial_db with Some d -> d | None -> Mmdb.Db.create ()) in
  print_endline
    "mmdb repl - type SQL statements, .help for commands, .quit to exit";
  let continue = ref true in
  while !continue do
    print_string "mmdb> ";
    match In_channel.input_line stdin with
    | None -> continue := false
    | Some line -> (
      let line = String.trim line in
      if line = "" then ()
      else if line = ".quit" || line = ".exit" then continue := false
      else if line = ".help" then repl_help ()
      else if line = ".tables" then
        List.iter print_endline (List.sort compare (Mmdb.Db.table_names !db))
      else if line = ".demo" then begin
        db := demo_db ();
        print_endline "demo tables loaded: emp, dept"
      end
      else if String.length line > 8 && String.sub line 0 8 = ".schema " then begin
        let table = String.trim (String.sub line 8 (String.length line - 8)) in
        match Mmdb.Db.catalog !db |> fun c -> P.Catalog.find c table with
        | rel ->
          Format.printf "%a@." S.Schema.pp (S.Relation.schema rel)
        | exception Not_found -> Printf.printf "no such table: %s\n" table
      end
      else if String.length line > 9 && String.sub line 0 9 = ".explain " then begin
        let q = String.sub line 9 (String.length line - 9) in
        match P.Sql.parse q with
        | Ok expr -> print_string (Mmdb.Db.explain !db expr)
        | Error m -> Printf.printf "parse error: %s\n" m
      end
      else if String.length line > 6 && String.sub line 0 6 = ".save " then begin
        let path = String.trim (String.sub line 6 (String.length line - 6)) in
        try
          Mmdb.Db.save !db path;
          Printf.printf "saved to %s\n" path
        with Sys_error m -> Printf.printf "error: %s\n" m
      end
      else if String.length line > 6 && String.sub line 0 6 = ".load " then begin
        let path = String.trim (String.sub line 6 (String.length line - 6)) in
        try
          db := Mmdb.Db.load path;
          Printf.printf "loaded %s\n" path
        with
        | Sys_error m -> Printf.printf "error: %s\n" m
        | Invalid_argument m -> Printf.printf "error: %s\n" m
      end
      else if line.[0] = '.' then
        Printf.printf "unknown command %s (.help for help)\n" line
      else
        try
          match Mmdb.Db.execute !db line with
          | Mmdb.Db.Rows rows -> print_rows rows 40
          | Mmdb.Db.Affected n -> Printf.printf "ok (%d rows affected)\n" n
        with
        | Invalid_argument m -> Printf.printf "error: %s\n" m
        | Not_found -> print_endline "error: unknown table")
  done;
  0

let repl_cmd =
  let db_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "db" ] ~doc:"Database file to load at startup.")
  in
  let with_demo =
    Arg.(value & flag & info [ "demo" ] ~doc:"Start with the demo tables.")
  in
  let run db_file with_demo =
    let initial =
      match db_file with
      | Some path -> Some (Mmdb.Db.load path)
      | None -> if with_demo then Some (demo_db ()) else None
    in
    repl initial
  in
  Cmd.v
    (Cmd.info "repl" ~exits:(exits []) ~doc:"Interactive SQL shell over an mmdb database.")
    Term.(const run $ db_file $ with_demo)

let () =
  let doc = "Main-memory DBMS techniques (DeWitt et al., SIGMOD 1984)" in
  let info =
    Cmd.info "mmdb_cli" ~version:"1.0.0" ~doc
      ~exits:
        (exits
           [ (1, "when the command reports a failure (see its $(b,--help)).") ])
  in
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  let code =
    Cmd.eval'
      (Cmd.group ~default info
         [
           sql_cmd; check_cmd; codes_cmd; repl_cmd;
         ])
  in
  (* A malformed flag is bad input like any other: exit 2, not 124. *)
  exit (if code = Cmd.Exit.cli_error then 2 else code)
