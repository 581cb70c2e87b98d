(* mmdb command-line tool: run the paper's analyses and simulations with
   your own parameters.

     mmdb_cli crossover --tuples 1000000 --z 20 --y 0.8
     mmdb_cli join --r-pages 10000 --s-pages 10000 --ratio 0.3
     mmdb_cli tps --strategy group-commit --txns 5000
     mmdb_cli recover --strategy partitioned-2 --txns 2000 --checkpoint 500
     mmdb_cli plan --mem 512 [--no-hash]
*)

module U = Mmdb_util
module S = Mmdb_storage
module AM = Mmdb_model.Access_model
module JM = Mmdb_model.Join_model
module R = Mmdb_recovery
module P = Mmdb_planner
module A = P.Algebra
module E = Mmdb_exec

open Cmdliner

(* ------------------------------------------------------------------ *)
(* crossover                                                           *)
(* ------------------------------------------------------------------ *)

let crossover tuples tuple_width key_width page_size z y =
  let p =
    {
      AM.r_tuples = tuples;
      AM.tuple_width;
      AM.key_width;
      AM.page_size;
      AM.pointer_width = 4;
      AM.z;
      AM.y;
    }
  in
  Printf.printf "relation: %s\n" (Format.asprintf "%a" AM.pp p);
  let h = AM.crossover_h p in
  Printf.printf
    "AVL beats B+-tree once %.1f%% of the AVL structure (%d pages; %d MB at \
     %d-byte pages) is memory-resident.\n"
    (100.0 *. h) (AM.avl_pages p)
    (AM.avl_pages p * page_size / 1_000_000)
    page_size;
  let hseq = AM.crossover_h_seq p ~n:1000 in
  Printf.printf "sequential access (1000 records): crossover at %.1f%%.\n"
    (100.0 *. hseq);
  0

let crossover_cmd =
  let tuples =
    Arg.(value & opt int 1_000_000 & info [ "tuples" ] ~doc:"Relation cardinality ||R||.")
  in
  let width =
    Arg.(value & opt int 40 & info [ "tuple-width" ] ~doc:"Tuple width t in bytes.")
  in
  let key = Arg.(value & opt int 8 & info [ "key-width" ] ~doc:"Key width K in bytes.") in
  let page = Arg.(value & opt int 4096 & info [ "page-size" ] ~doc:"Page size P in bytes.") in
  let z = Arg.(value & opt float 20.0 & info [ "z" ] ~doc:"Page-read cost in comparisons (10-30).") in
  let y = Arg.(value & opt float 1.0 & info [ "y" ] ~doc:"AVL comparison cost relative to B+-tree (<= 1).") in
  Cmd.v
    (Cmd.info "crossover" ~doc:"Section 2: AVL vs B+-tree memory-residency crossover.")
    Term.(const crossover $ tuples $ width $ key $ page $ z $ y)

(* ------------------------------------------------------------------ *)
(* join                                                                *)
(* ------------------------------------------------------------------ *)

let join r_pages s_pages tpp ratio =
  let w =
    {
      JM.r_pages = min r_pages s_pages;
      JM.s_pages = max r_pages s_pages;
      JM.r_tuples_per_page = tpp;
      JM.s_tuples_per_page = tpp;
      JM.cost = S.Cost.table2;
    }
  in
  let m =
    max (JM.min_memory w)
      (int_of_float (ratio *. float_of_int w.JM.r_pages *. 1.2))
  in
  Printf.printf
    "|R| = %d pages, |S| = %d pages, |M| = %d pages (ratio %.3f)\n\n"
    w.JM.r_pages w.JM.s_pages m ratio;
  let t = U.Tablefmt.create [ "algorithm"; "predicted seconds" ] in
  List.iter
    (fun (name, cost) ->
      U.Tablefmt.add_row t [ name; U.Tablefmt.cell_float ~decimals:1 cost ])
    (JM.all_four w ~m);
  U.Tablefmt.print t;
  Printf.printf "\nhybrid: B = %d partitions, q = %.2f in memory; simple: %d passes.\n"
    (JM.hybrid_partitions w ~m) (JM.hybrid_q w ~m)
    (JM.simple_hash_passes w ~m);
  0

let join_cmd =
  let r = Arg.(value & opt int 10_000 & info [ "r-pages" ] ~doc:"Pages in R.") in
  let s = Arg.(value & opt int 10_000 & info [ "s-pages" ] ~doc:"Pages in S.") in
  let tpp = Arg.(value & opt int 40 & info [ "tuples-per-page" ] ~doc:"Tuples per page.") in
  let ratio =
    Arg.(value & opt float 0.3 & info [ "ratio" ] ~doc:"|M| / (|R| * F).")
  in
  Cmd.v
    (Cmd.info "join" ~doc:"Section 3: predicted cost of the four join algorithms.")
    Term.(const join $ r $ s $ tpp $ ratio)

(* ------------------------------------------------------------------ *)
(* tps                                                                 *)
(* ------------------------------------------------------------------ *)

let strategy_of_string = function
  | "conventional" -> Ok R.Wal.Conventional
  | "group-commit" -> Ok R.Wal.Group_commit
  | s when String.length s > 12 && String.sub s 0 12 = "partitioned-" -> (
    match int_of_string_opt (String.sub s 12 (String.length s - 12)) with
    | Some n when n > 0 -> Ok (R.Wal.Partitioned { devices = n })
    | _ -> Error (`Msg "bad device count"))
  | "stable" ->
    Ok (R.Wal.Stable { devices = 1; capacity_bytes = 65536; compressed = true })
  | s -> Error (`Msg ("unknown strategy " ^ s))

let strategy_conv =
  Arg.conv
    ( strategy_of_string,
      fun ppf s -> Format.fprintf ppf "%s" (R.Tps_sim.strategy_label s) )

let tps strategy txns accounts =
  let r = R.Tps_sim.run ~nrecords:accounts ~n_txns:txns strategy in
  Printf.printf "strategy:    %s\n" r.R.Tps_sim.strategy_label;
  Printf.printf "committed:   %d transactions in %.3f simulated s\n"
    r.R.Tps_sim.committed r.R.Tps_sim.makespan;
  Printf.printf "throughput:  %.0f tps\n" r.R.Tps_sim.tps;
  Printf.printf "latency:     %s\n"
    (Format.asprintf "%a" U.Stats.pp_summary r.R.Tps_sim.latency);
  Printf.printf "log written: %d pages, %d bytes\n" r.R.Tps_sim.log_pages
    r.R.Tps_sim.log_disk_bytes;
  0

let tps_cmd =
  let strategy =
    Arg.(
      value
      & opt strategy_conv R.Wal.Group_commit
      & info [ "strategy" ]
          ~doc:
            "conventional | group-commit | partitioned-N | stable.")
  in
  let txns = Arg.(value & opt int 3000 & info [ "txns" ] ~doc:"Transactions to run.") in
  let accounts =
    Arg.(value & opt int 100_000 & info [ "accounts" ] ~doc:"Account-table size.")
  in
  Cmd.v
    (Cmd.info "tps" ~doc:"Section 5.2: simulated transaction throughput.")
    Term.(const tps $ strategy $ txns $ accounts)

(* ------------------------------------------------------------------ *)
(* recover                                                             *)
(* ------------------------------------------------------------------ *)

let recover strategy txns checkpoint crash_after audit parallel logging
    use_domains replay_crash serve_stale =
  let cfg =
    {
      R.Recovery_manager.default_config with
      R.Recovery_manager.strategy;
      R.Recovery_manager.n_txns = txns;
      R.Recovery_manager.checkpoint_every = checkpoint;
      R.Recovery_manager.crash_after;
      replay =
        {
          R.Recovery_manager.workers = parallel;
          use_domains;
          logging;
          crash_steps = replay_crash;
          record_replay = false;
          serve_stale;
        };
    }
  in
  let o = R.Recovery_manager.run cfg in
  Printf.printf "submitted:           %d\n" o.R.Recovery_manager.submitted;
  Printf.printf "durably committed:   %d\n" o.R.Recovery_manager.durably_committed;
  Printf.printf "checkpoints:         %d (%d pages)\n"
    o.R.Recovery_manager.checkpoints_taken o.R.Recovery_manager.checkpoint_pages;
  Printf.printf "log:                 %d pages, %d bytes (%d command txns)\n"
    o.R.Recovery_manager.log_pages o.R.Recovery_manager.log_disk_bytes
    o.R.Recovery_manager.command_txns;
  let rs = o.R.Recovery_manager.recover_stats in
  Printf.printf "recovery:            redo %d, undo %d, %d records scanned, %.3f s\n"
    rs.R.Kv_store.redo_applied rs.R.Kv_store.undo_applied
    rs.R.Kv_store.records_scanned rs.R.Kv_store.recovery_time;
  Printf.printf
    "replay:              %d worker(s)%s, %d local ops, %d barrier ops \
     across %d barriers, %d pages written back\n"
    rs.R.Kv_store.workers
    (if rs.R.Kv_store.used_domains then " (domains)" else "")
    (rs.R.Kv_store.local_value_ops + rs.R.Kv_store.local_command_ops)
    rs.R.Kv_store.barrier_ops rs.R.Kv_store.barriers
    rs.R.Kv_store.pages_written_back;
  if o.R.Recovery_manager.recovery_attempts > 1 then
    Printf.printf "recovery attempts:   %d (crashed mid-replay, restarted)\n"
      o.R.Recovery_manager.recovery_attempts;
  if serve_stale then
    Printf.printf
      "stale service:       %d reads answered from the checkpoint image \
       during replay (%d already current)\n"
      o.R.Recovery_manager.stale_reads_served
      o.R.Recovery_manager.stale_reads_current;
  Printf.printf "consistent:          %b\nmoney conserved:     %b\n"
    o.R.Recovery_manager.consistent o.R.Recovery_manager.money_conserved;
  let audit_ok =
    if not audit then true
    else begin
      (* The full submitted log is a complete run; the durable log may be
         crash-truncated, so open transactions there are legitimate. *)
      let results =
        Mmdb_verify.Audit.run_all
          [
            Mmdb_verify.Audit.Log
              {
                name = "wal (submitted)";
                complete = true;
                records = o.R.Recovery_manager.log_records;
              };
            Mmdb_verify.Audit.Log
              {
                name = "wal (durable)";
                complete = false;
                records = o.R.Recovery_manager.durable_log;
              };
          ]
      in
      print_newline ();
      Mmdb_verify.Audit.report Format.std_formatter results
    end
  in
  if o.R.Recovery_manager.consistent && audit_ok then 0 else 1

let recover_cmd =
  let strategy =
    Arg.(
      value
      & opt strategy_conv R.Wal.Group_commit
      & info [ "strategy" ] ~doc:"Commit strategy (see tps).")
  in
  let txns = Arg.(value & opt int 2000 & info [ "txns" ] ~doc:"Transactions.") in
  let checkpoint =
    Arg.(
      value
      & opt (some int) (Some 500)
      & info [ "checkpoint" ] ~doc:"Checkpoint interval in transactions.")
  in
  let crash =
    Arg.(
      value
      & opt (some int) None
      & info [ "crash-after" ] ~doc:"Crash after N submissions (default: clean run).")
  in
  let audit =
    Arg.(
      value & flag
      & info [ "audit" ] ~doc:"Run the WAL protocol auditor on the logs.")
  in
  let parallel =
    Arg.(
      value & opt int 1
      & info [ "parallel" ]
          ~doc:"Replay partitions (log is partitioned by page).")
  in
  let logging =
    let logging_conv =
      Arg.enum
        [
          ("value", R.Recovery_manager.Value_logging);
          ("command", R.Recovery_manager.Command_logging);
          ("adaptive", R.Recovery_manager.Adaptive_logging);
        ]
    in
    Arg.(
      value
      & opt logging_conv R.Recovery_manager.Value_logging
      & info [ "logging" ]
          ~doc:
            "Log record choice: $(b,value), $(b,command), or $(b,adaptive) \
             (per-transaction, priced by the recovery-time model).")
  in
  let use_domains =
    Arg.(
      value & flag
      & info [ "domains" ]
          ~doc:
            "Replay partitions on real domains (OCaml 5; falls back to the \
             deterministic scheduler elsewhere).")
  in
  let replay_crash =
    Arg.(
      value
      & opt (some int) None
      & info [ "replay-crash" ]
          ~doc:
            "Crash the recovery itself after N replay steps, then restart \
             it (restart-crash resilience demo).")
  in
  let serve_stale =
    Arg.(
      value & flag
      & info [ "serve-stale" ]
          ~doc:
            "Degraded read-only mode: while replay is in flight, serve a \
             modelled read stream from the surviving checkpoint image and \
             report its staleness.")
  in
  Cmd.v
    (Cmd.info "recover" ~doc:"Sections 5.3-5.5: crash, recover, verify.")
    Term.(
      const recover $ strategy $ txns $ checkpoint $ crash $ audit $ parallel
      $ logging $ use_domains $ replay_crash $ serve_stale)

(* ------------------------------------------------------------------ *)
(* plan                                                                *)
(* ------------------------------------------------------------------ *)

let plan mem no_hash =
  let db = Mmdb.Db.create ~mem_pages:mem () in
  let emp =
    S.Schema.create ~key:"id"
      [
        S.Schema.column "id" S.Schema.Int;
        S.Schema.column "dept" S.Schema.Int;
        S.Schema.column "salary" S.Schema.Int;
      ]
  in
  let dept =
    S.Schema.create ~key:"dept_id"
      [
        S.Schema.column "dept_id" S.Schema.Int;
        S.Schema.column "region" S.Schema.Int;
      ]
  in
  Mmdb.Db.create_table db ~name:"emp" ~schema:emp;
  Mmdb.Db.create_table db ~name:"dept" ~schema:dept;
  let rng = U.Xorshift.create 5 in
  Mmdb.Db.insert_many db ~table:"emp"
    (List.init 10_000 (fun i ->
         [
           S.Tuple.VInt i;
           S.Tuple.VInt (U.Xorshift.int rng 50);
           S.Tuple.VInt (30_000 + U.Xorshift.int rng 70_000);
         ]));
  Mmdb.Db.insert_many db ~table:"dept"
    (List.init 50 (fun i -> [ S.Tuple.VInt i; S.Tuple.VInt (i mod 4) ]));
  let q =
    A.aggregate ~group_by:"r_dept" ~aggs:[ E.Aggregate.Count ]
      (A.select ~column:"r_salary" ~op:A.Gt ~value:(S.Tuple.VInt 80_000)
         (A.join ~left_key:"dept" ~right_key:"dept_id" (A.scan "emp")
            (A.scan "dept")))
  in
  let cfg =
    {
      P.Optimizer.mem_pages = mem;
      P.Optimizer.fudge = 1.2;
      P.Optimizer.allow_hash = not no_hash;
    }
  in
  let plan = P.Optimizer.plan (Mmdb.Db.catalog db) cfg q in
  Printf.printf "query: %s\n\nplan (|M| = %d pages%s):\n%s\n"
    (Format.asprintf "%a" A.pp q)
    mem
    (if no_hash then ", hash disabled" else "")
    (P.Optimizer.explain plan);
  Printf.printf "estimated join cost: %.4f s\n" (P.Optimizer.estimated_cost plan);
  let out = P.Executor.run (Mmdb.Db.catalog db) cfg plan in
  Printf.printf "executed: %d result rows\n" (S.Relation.ntuples out);
  0

let plan_cmd =
  let mem = Arg.(value & opt int 512 & info [ "mem" ] ~doc:"Memory pages |M|.") in
  let no_hash =
    Arg.(value & flag & info [ "no-hash" ] ~doc:"Restrict the optimizer to sort-merge.")
  in
  Cmd.v
    (Cmd.info "plan" ~doc:"Section 4: optimize and run a demo star query.")
    Term.(const plan $ mem $ no_hash)

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
      let rows = Mmdb.Db.query_rows db expr in
      let total = List.length rows in
      List.iteri
        (fun i row ->
          if i < limit then begin
            let cells =
              List.map
                (function
                  | S.Tuple.VInt v -> string_of_int v
                  | S.Tuple.VStr s -> s)
                row
            in
            print_endline (String.concat " | " cells)
          end)
        rows;
      if total > limit then Printf.printf "... (%d rows total)\n" total
      else Printf.printf "(%d rows)\n" total;
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
    Arg.(value & flag & info [ "explain" ] ~doc:"Show the plan only.")
  in
  let limit =
    Arg.(value & opt int 20 & info [ "limit" ] ~doc:"Max rows to print.")
  in
  Cmd.v
    (Cmd.info "sql" ~doc:"Run a SQL query against a built-in demo database.")
    Term.(const run_sql $ text $ explain_only $ limit)

(* ------------------------------------------------------------------ *)
(* check                                                               *)
(* ------------------------------------------------------------------ *)

let run_check text explain_after =
  let db = demo_db () in
  Printf.printf
    "demo database: emp(id, dept, salary, name) x 5000, dept(dept_id, \
     budget, dname) x 20\n\n";
  match P.Sql.parse_checked (Mmdb.Db.catalog db) text with
  | Error diags ->
    Format.printf "%a@." U.Diag.pp_list diags;
    Printf.printf "check: %s\n" (U.Diag.summary diags);
    if U.Diag.has_errors diags then 1 else 0
  | Ok expr ->
    let diags = Mmdb.Db.check db expr in
    Format.printf "query: %a@.@." A.pp expr;
    if explain_after then Printf.printf "plan:\n%s\n" (Mmdb.Db.explain db expr);
    if diags <> [] then Format.printf "%a@." U.Diag.pp_list diags;
    Printf.printf "check: ok (%s)\n" (U.Diag.summary diags);
    0

let check_cmd =
  let text =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"QUERY" ~doc:"The SQL text to check.")
  in
  let explain_after =
    Arg.(
      value & flag
      & info [ "explain" ] ~doc:"Also show the optimizer's plan when valid.")
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Statically check a SQL query against the demo catalog without \
          executing it; exits 1 when the plan checker reports errors.")
    Term.(const run_check $ text $ explain_after)

(* ------------------------------------------------------------------ *)
(* txncheck                                                            *)
(* ------------------------------------------------------------------ *)

module V = Mmdb_verify

(* A deterministic Txn_db workload with schedule recording on: a batch of
   transfers, one explicit abort, a fuzzy checkpoint, more transfers, a
   crash and recovery. *)
let txncheck_builtin () =
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
  (Mmdb.Txn_db.schedule db, Mmdb.Txn_db.log_records db)

let run_txncheck fuzz seed txns accounts scramble crash_run =
  if not fuzz then begin
    let events, log = txncheck_builtin () in
    Printf.printf
      "built-in Txn_db workload: %d schedule events, %d log records\n\n"
      (List.length events) (List.length log);
    let results =
      V.Audit.run_all [ V.Audit.Schedule { name = "txn schedule"; events; log } ]
    in
    if V.Audit.report Format.std_formatter results then 0 else 1
  end
  else begin
    let o = V.Txn_fuzz.run ~txns ~accounts ~scramble ~crash:crash_run ~seed () in
    Printf.printf
      "fuzz seed %d: %d committed, %d aborted, %d lock waits, %d deadlocks \
       broken%s\n"
      seed o.V.Txn_fuzz.committed o.V.Txn_fuzz.aborted o.V.Txn_fuzz.waits
      o.V.Txn_fuzz.deadlocks
      (if o.V.Txn_fuzz.crashed then ", crashed mid-schedule" else "");
    Printf.printf "schedule: %d events, %d log records\n"
      (List.length o.V.Txn_fuzz.events)
      (List.length o.V.Txn_fuzz.log);
    let diags = o.V.Txn_fuzz.diags in
    if diags <> [] then Format.printf "@.%a@." U.Diag.pp_list diags;
    Printf.printf "txncheck: %s\n" (U.Diag.summary diags);
    if U.Diag.has_errors diags then 1 else 0
  end

let txncheck_cmd =
  let fuzz =
    Arg.(
      value & flag
      & info [ "fuzz" ]
          ~doc:
            "Run the seeded interleaved-workload fuzzer (staged lock \
             acquisition, aborts, optional deadlocks) instead of the \
             built-in Txn_db workload.")
  in
  let seed =
    Arg.(value & opt int 11 & info [ "seed" ] ~doc:"Fuzzer PRNG seed.")
  in
  let txns =
    Arg.(value & opt int 40 & info [ "txns" ] ~doc:"Fuzzer transaction count.")
  in
  let accounts =
    Arg.(
      value & opt int 16
      & info [ "accounts" ] ~doc:"Fuzzer account count (small = contended).")
  in
  let scramble =
    Arg.(
      value & flag
      & info [ "scramble" ]
          ~doc:
            "Shuffle each transaction's lock-acquisition order: deadlocks \
             become possible and must be caught (TXN006/TXN101).")
  in
  let crash_run =
    Arg.(
      value & flag
      & info [ "crash" ]
          ~doc:
            "Stop the fuzzed run mid-schedule without flushing the log \
             (truncated-trace tolerance).")
  in
  Cmd.v
    (Cmd.info "txncheck"
       ~doc:
         "Record a transaction schedule and run the Section 5.2 sanitizer: \
          2PL/pre-commit conformance, waits-for deadlocks, \
          conflict-serializability, and the group-commit dependency audit. \
          Exits 1 when any TXN error is reported.")
    Term.(
      const run_txncheck $ fuzz $ seed $ txns $ accounts $ scramble $ crash_run)

(* ------------------------------------------------------------------ *)
(* torture                                                             *)
(* ------------------------------------------------------------------ *)

module Fault = Mmdb_fault.Fault
module Fault_plan = Mmdb_fault.Fault_plan

let faults_doc =
  "Comma-separated fault spec: "
  ^ String.concat ", "
      (List.map (fun (n, d) -> Printf.sprintf "$(b,%s) (%s)" n d)
         Fault_plan.spec_names)
  ^ "."

let torture seed txns faults strategy points =
  (* Validate the spec before sweeping. *)
  (match faults with
  | None -> ()
  | Some s -> (
    match Fault_plan.of_spec s with
    | Ok _ -> ()
    | Error m ->
      prerr_endline ("torture: " ^ m);
      exit 2));
  let specs = match faults with None -> None | Some s -> Some [ s ] in
  let strategies = Option.map (fun s -> [ s ]) strategy in
  let r =
    V.Torture.run ~seed ~txns ?specs ?strategies
      ~max_points_per_combo:points ()
  in
  Format.printf "%a" V.Torture.pp r;
  if V.Torture.ok r then 0 else 1

let torture_cmd =
  let seed =
    Arg.(value & opt int 7 & info [ "seed" ] ~doc:"Sweep seed (workload, fault schedule, and crash points all derive from it).")
  in
  let txns =
    Arg.(value & opt int 48 & info [ "txns" ] ~doc:"Transactions per run.")
  in
  let faults =
    Arg.(
      value
      & opt (some string) None
      & info [ "faults" ] ~doc:(faults_doc ^ " Default: sweep every spec."))
  in
  let strategy =
    Arg.(
      value
      & opt (some strategy_conv) None
      & info [ "strategy" ]
          ~doc:"Restrict to one commit strategy (see tps). Default: all four.")
  in
  let points =
    Arg.(
      value & opt int 32
      & info [ "points" ] ~doc:"Max crash points per strategy x fault pair.")
  in
  Cmd.v
    (Cmd.info "torture"
       ~doc:
         "Crash the recovery stack at every schedulable point — between \
          arrivals, mid-log-page-write, past quiesce — for each commit \
          strategy, with and without injected faults (torn log tails, bit \
          flips, transient I/O errors, snapshot rot, battery droop). \
          Exits 1 on silent corruption: an invariant violation without an \
          unrecoverable-fault report.")
    Term.(const torture $ seed $ txns $ faults $ strategy $ points)

(* ------------------------------------------------------------------ *)
(* modelcheck                                                          *)
(* ------------------------------------------------------------------ *)

let modelcheck seed tolerance enumerate verbose =
  let cases =
    V.Model_check.run_suite ~seed ~tolerance_scale:tolerance ~enumerate ()
  in
  let all_clean = ref true in
  List.iter
    (fun (c : V.Model_check.case) ->
      let diags = V.Model_check.case_diags c in
      if U.Diag.has_errors diags then all_clean := false;
      if diags = [] then Format.printf "%-24s ok@." c.V.Model_check.name
      else begin
        Format.printf "%-24s %s@." c.V.Model_check.name (U.Diag.summary diags);
        List.iter (fun d -> Format.printf "  %a@." U.Diag.pp d) diags
      end;
      if verbose then
        List.iter
          (fun r ->
            Format.printf "  @[<v>%a@]@." V.Model_check.pp_report r)
          c.V.Model_check.reports)
    cases;
  let total = V.Model_check.suite_diags cases in
  Format.printf "modelcheck: %d case%s, %s%s@." (List.length cases)
    (if List.length cases = 1 then "" else "s")
    (U.Diag.summary total)
    (if enumerate then "" else " (optimality lint skipped; use --enumerate)");
  if !all_clean then 0 else 1

let modelcheck_cmd =
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Corpus seed (table contents derive from it).")
  in
  let tolerance =
    Arg.(
      value & opt float 1.0
      & info [ "tolerance" ]
          ~doc:
            "Scale every declared tolerance band: values above 1 widen \
             (more permissive), below 1 tighten.")
  in
  let enumerate =
    Arg.(
      value & flag
      & info [ "enumerate" ]
          ~doc:
            "Also lint the optimizer: exhaustively enumerate the \
             algorithm-assignment plan space and flag chosen plans above \
             the enumerated minimum (MODEL008).")
  in
  let verbose =
    Arg.(
      value & flag
      & info [ "v"; "verbose" ]
          ~doc:"Print every node's predicted vs observed breakdown.")
  in
  Cmd.v
    (Cmd.info "modelcheck"
       ~doc:
         "Check the executable operators against the Section 3 analytic \
          cost model: predict each operator's comparisons, hashes, moves, \
          swaps and page I/Os symbolically, execute a seeded corpus under \
          counter instrumentation, and flag divergence beyond declared \
          per-operator tolerance bands (MODEL001-MODEL011). Exits 1 on \
          any error-severity finding.")
    Term.(const modelcheck $ seed $ tolerance $ enumerate $ verbose)

(* ------------------------------------------------------------------ *)
(* racecheck                                                           *)
(* ------------------------------------------------------------------ *)

let inject_of_spec spec =
  let atom = function
    | "ww" -> Ok [ `Ww ]
    | "rw" -> Ok [ `Rw ]
    | "unguarded" -> Ok [ `Unguarded ]
    | "release" -> Ok [ `Release_no_acquire ]
    | "snapshot" -> Ok [ `Snapshot ]
    | "all" -> Ok [ `Ww; `Rw; `Unguarded; `Release_no_acquire; `Snapshot ]
    | "" -> Ok []
    | a -> Error a
  in
  List.fold_left
    (fun acc tok ->
      match (acc, atom (String.trim tok)) with
      | Ok l, Ok a -> Ok (l @ a)
      | (Error _ as e), _ -> e
      | _, Error a -> Error a)
    (Ok [])
    (String.split_on_char ',' spec)

let racecheck_fuzz ~seed ~domains ~inject =
  let o = V.Txn_fuzz.run ~domains ~inject ~seed () in
  Printf.printf
    "fuzz seed %d, %d domains: %d committed, %d aborted, %d events, %d \
     injected race%s\n"
    seed domains o.V.Txn_fuzz.committed o.V.Txn_fuzz.aborted
    (List.length o.V.Txn_fuzz.events)
    (List.length o.V.Txn_fuzz.injected)
    (if List.length o.V.Txn_fuzz.injected = 1 then "" else "s");
  let diags = o.V.Txn_fuzz.race_diags in
  if diags <> [] then Format.printf "%a@." U.Diag.pp_list diags;
  let found = List.map (fun (d : U.Diag.t) -> d.U.Diag.code) diags in
  (* Positive controls: every injected race must be flagged under its
     expected code; a missed injection is a detector bug. *)
  let missed =
    List.filter (fun c -> not (List.mem c found)) o.V.Txn_fuzz.injected
  in
  List.iter
    (fun c -> Printf.printf "racecheck: MISSED injected race %s\n" c)
    missed;
  if o.V.Txn_fuzz.injected = [] then begin
    Printf.printf "fuzz: %s\n" (U.Diag.summary diags);
    not (U.Diag.has_errors diags)
  end
  else begin
    Printf.printf "fuzz: %d/%d injected races detected\n"
      (List.length o.V.Txn_fuzz.injected - List.length missed)
      (List.length o.V.Txn_fuzz.injected);
    missed = []
  end

let racecheck_mvcc ~seed =
  let r =
    R.Mvcc_sim.run ~seed ~n_writers:2_000 ~record_schedule:true
      R.Mvcc_sim.Versioning
  in
  let diags = V.Race_check.audit r.R.Mvcc_sim.events in
  if diags <> [] then Format.printf "%a@." U.Diag.pp_list diags;
  Printf.printf "mvcc: %d version-store events across %d domains, %s\n"
    (List.length r.R.Mvcc_sim.events)
    (List.length (V.Schedule.domains r.R.Mvcc_sim.events))
    (U.Diag.summary diags);
  not (U.Diag.has_errors diags)

let run_racecheck fuzz mvcc domains inject_spec seed =
  let inject =
    match inject_of_spec inject_spec with
    | Ok l -> l
    | Error a ->
      prerr_endline
        ("racecheck: unknown injection `" ^ a
       ^ "' (expected ww, rw, unguarded, release, snapshot or all)");
      exit 2
  in
  (* No mode flag = the dynamic gate: clean multi-domain fuzz, MVCC. *)
  let all = (not fuzz) && not mvcc in
  let ok = ref true in
  let part label b =
    if not b then ok := false;
    Printf.printf "%-6s %s\n\n" label (if b then "ok" else "FAIL")
  in
  if fuzz || all then part "fuzz" (racecheck_fuzz ~seed ~domains ~inject);
  if mvcc || all then part "mvcc" (racecheck_mvcc ~seed);
  if !ok then 0 else 1

let racecheck_cmd =
  let fuzz =
    Arg.(
      value & flag
      & info [ "fuzz" ]
          ~doc:
            "Dynamic half only: run the multi-domain transaction fuzzer \
             and audit the recorded schedule with the happens-before \
             detector (RACE001-RACE005).")
  in
  let mvcc =
    Arg.(
      value & flag
      & info [ "mvcc" ]
          ~doc:
            "Dynamic half, versioning engine: record the MVCC simulator's \
             version-store accesses and audit them (snapshot discipline, \
             RACE005).")
  in
  let domains =
    Arg.(
      value & opt int 3
      & info [ "domains" ]
          ~doc:"Simulated domain count for the fuzzed workload.")
  in
  let inject =
    Arg.(
      value & opt string ""
      & info [ "inject" ]
          ~doc:
            "Comma-separated positive controls seeded into the fuzzed \
             trace: $(b,ww), $(b,rw), $(b,unguarded), $(b,release), \
             $(b,snapshot), or $(b,all). Every injected race must be \
             flagged under its expected code or the run fails.")
  in
  let seed =
    Arg.(value & opt int 11 & info [ "seed" ] ~doc:"Workload PRNG seed.")
  in
  Cmd.v
    (Cmd.info "racecheck"
       ~doc:
         "Dynamic domain-safety gate for the multicore engine: a \
          FastTrack-style happens-before race detector (with Eraser lockset \
          fallback and MVCC snapshot discipline) over recorded multi-domain \
          schedules. With no mode flag, runs fuzz and mvcc. Exits 1 on any \
          detected race or missed injection. The static half is $(b,lint).")
    Term.(const run_racecheck $ fuzz $ mvcc $ domains $ inject $ seed)

(* ------------------------------------------------------------------ *)
(* lint                                                                *)
(* ------------------------------------------------------------------ *)

let run_lint quiet =
  match V.Lint.scan_lib () with
  | Error m ->
    prerr_endline ("lint: " ^ m);
    2
  | Ok (findings, parse_diags) ->
    if not quiet then begin
      Format.printf "lint inventory (lib/):@.";
      V.Lint.pp_inventory Format.std_formatter findings
    end;
    let diags = parse_diags @ V.Lint.diags_of_findings findings in
    if diags <> [] then Format.printf "@.%a@." U.Diag.pp_list diags;
    Format.printf "lint: %d finding%s, %s@." (List.length findings)
      (if List.length findings = 1 then "" else "s")
      (U.Diag.summary diags);
    if U.Diag.has_errors diags then 1 else 0

let lint_cmd =
  let quiet =
    Arg.(
      value & flag
      & info [ "quiet"; "q" ]
          ~doc:
            "Print only unjustified findings and the summary, not the \
             full inventory.")
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Static lint over lib/, one parse per file, three rule families: \
          module-level mutable state (RACE100-RACE103), performance \
          hazards (PERF100-PERF105), and exception flow and pin/lock \
          discipline (EXN100-EXN105, RES101-RES104). A finding is \
          silenced by a justification comment of its own family: \
          (* race_check: ... *), (* perf_lint: ... *) or \
          (* exn_flow: ... *). Exits 1 on any unjustified finding, 2 when \
          lib/ cannot be found.")
    Term.(const run_lint $ quiet)

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
    (Cmd.info "codes"
       ~doc:
         "Print the diagnostic-code catalogue as the Markdown of CODES.md: \
          every stable code with its one-line meaning.")
    Term.(const print_codes $ const ())

(* ------------------------------------------------------------------ *)
(* stats                                                               *)
(* ------------------------------------------------------------------ *)

(* Exercise the instrumented storage plane — faulted disk, buffer pool
   with scrubbing — and print the operation counters, whose media tally
   shares the fault plan's counter record. *)
let stats seed faults_spec pages ops =
  let rules =
    match Fault_plan.of_spec faults_spec with
    | Ok r -> r
    | Error m ->
      prerr_endline ("stats: " ^ m);
      exit 2
  in
  let env = S.Env.create () in
  let disk = S.Disk.create ~env ~page_size:4096 in
  let plan =
    Fault_plan.create ~seed ~tally:env.S.Env.counters.S.Counters.fault
      (* The spec atoms name log-plane sites; this workload exercises the
         storage plane, so map each rule onto its disk/pool analogue
         (battery droop has none and stays a no-op here). *)
      (List.map
         (fun r ->
           let site =
             match r.Fault_plan.site with
             | Fault.Log_write -> Fault.Disk_write
             | Fault.Log_read -> Fault.Disk_read
             | Fault.Snapshot | Fault.Stable_crash -> Fault.Pool_frame
             | (Fault.Disk_read | Fault.Disk_write | Fault.Pool_frame) as s
               -> s
           in
           { r with Fault_plan.site })
         rules)
  in
  S.Disk.arm disk plan;
  let pids = Array.init pages (fun _ -> S.Disk.alloc disk) in
  let rng = U.Xorshift.create seed in
  Array.iter
    (fun pid ->
      let b = Bytes.make 4096 '\000' in
      Bytes.set b 0 (Char.chr (pid land 0xff));
      S.Disk.write disk ~mode:S.Disk.Seq pid b)
    pids;
  let pool =
    S.Buffer_pool.create ~disk ~capacity:(max 1 (pages / 2)) S.Buffer_pool.Lru
  in
  let unrecoverable = ref 0 in
  for _ = 1 to ops do
    let pid = pids.(U.Xorshift.int rng pages) in
    match S.Buffer_pool.get pool pid with
    | (_ : bytes) -> ()
    | exception Fault.Unrecoverable _ -> incr unrecoverable
  done;
  let repaired = S.Buffer_pool.scrub pool in
  Printf.printf "workload:  %d pages, %d pool frames, %d random gets\n" pages
    (S.Buffer_pool.capacity pool) ops;
  Printf.printf "counters:  %s\n"
    (Format.asprintf "%a" S.Counters.pp env.S.Env.counters);
  Printf.printf "io retry:  %d transient retr%s, %.1f ms total backoff\n"
    (S.Counters.io_retries env.S.Env.counters)
    (if S.Counters.io_retries env.S.Env.counters = 1 then "y" else "ies")
    (S.Counters.io_retry_backoff env.S.Env.counters *. 1e3);
  Printf.printf "scrub:     %d frame(s) repaired from disk\n" repaired;
  if !unrecoverable > 0 then
    Printf.printf "unrecoverable reads: %d\n" !unrecoverable;
  (match Fault_plan.event_counts plan with
  | [] -> ()
  | evs ->
    Printf.printf "events:   ";
    List.iter (fun (c, n) -> Printf.printf " %s=%d" c n) evs;
    print_newline ());
  0

let stats_cmd =
  let seed = Arg.(value & opt int 7 & info [ "seed" ] ~doc:"Fault-plan seed.") in
  let faults =
    Arg.(value & opt string "none" & info [ "faults" ] ~doc:faults_doc)
  in
  let pages =
    Arg.(value & opt int 64 & info [ "pages" ] ~doc:"Disk pages to allocate.")
  in
  let ops =
    Arg.(value & opt int 500 & info [ "ops" ] ~doc:"Random page reads.")
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Run a buffer-pool workload over the instrumented (optionally \
          faulted) disk and print the operation counters, including the \
          fault-plane media tally and a scrub pass.")
    Term.(const stats $ seed $ faults $ pages $ ops)

(* ------------------------------------------------------------------ *)
(* overload                                                            *)
(* ------------------------------------------------------------------ *)

let overload spike deadline_ms no_admission no_deadlines storm seed duration =
  let module OS = Mmdb.Overload_sim in
  let cfg =
    {
      OS.default_config with
      OS.seed;
      OS.spike_mult = spike;
      OS.deadline_budget = deadline_ms /. 1000.0;
      OS.admission = not no_admission;
      OS.enforce_deadlines = not no_deadlines;
      OS.storm;
      OS.duration;
    }
  in
  let o = OS.run cfg in
  Printf.printf "run:        %s, %.1fs at %.0f/s base, %gx spike, %.0f ms \
                 deadlines%s\n"
    o.OS.label cfg.OS.duration cfg.OS.base_rate cfg.OS.spike_mult deadline_ms
    (if storm then ", storm armed" else "");
  Printf.printf "arrivals:   %d\n" o.OS.arrivals;
  Printf.printf "goodput:    %d txns (%.0f tps) durable within deadline\n"
    o.OS.goodput_txns o.OS.goodput_tps;
  Printf.printf "committed:  %d total (%d late past their deadline)\n"
    o.OS.committed o.OS.late;
  Printf.printf "shed:       %d typed rejections\n" o.OS.shed;
  Printf.printf "timed out:  %d typed deadline expiries\n" o.OS.timed_out;
  if o.OS.io_failures > 0 then
    Printf.printf "io failed:  %d\n" o.OS.io_failures;
  Printf.printf "latency:    p50 %.1f ms, p99 %.1f ms\n"
    (o.OS.p50_latency *. 1e3) (o.OS.p99_latency *. 1e3);
  if o.OS.shed_codes <> [] then begin
    Printf.printf "codes:     ";
    List.iter (fun (c, n) -> Printf.printf " %s=%d" c n) o.OS.shed_codes;
    print_newline ()
  end;
  Printf.printf "breaker:    %d trip(s), %d reopen(s), final %s\n"
    o.OS.breaker_trips o.OS.breaker_reopens o.OS.breaker_final;
  Printf.printf "money:      %s\n"
    (if o.OS.money_conserved then "conserved" else "NOT CONSERVED");
  if o.OS.money_conserved then 0 else 1

let overload_cmd =
  let spike =
    Arg.(
      value & opt float 10.0
      & info [ "spike" ] ~doc:"Arrival-rate multiplier during the spike window.")
  in
  let deadline =
    Arg.(
      value & opt float 50.0
      & info [ "deadline" ] ~doc:"Per-transaction deadline in milliseconds.")
  in
  let no_admission =
    Arg.(
      value & flag
      & info [ "no-admission" ]
          ~doc:
            "Disarm admission control (the collapse control: every arrival \
             is admitted and queues behind the log device).")
  in
  let no_deadlines =
    Arg.(
      value & flag
      & info [ "no-deadlines" ]
          ~doc:
            "Disarm in-service deadline enforcement: expired transactions \
             run to commit anyway (clients just observe the lateness), so \
             the backlog snowballs.")
  in
  let storm =
    Arg.(
      value & flag
      & info [ "storm" ]
          ~doc:
            "Arm the $(b,storm) fault spec: a burst of transient log-device \
             faults that trips the circuit breaker.")
  in
  let seed =
    Arg.(value & opt int 7 & info [ "seed" ] ~doc:"Workload PRNG seed.")
  in
  let duration =
    Arg.(
      value & opt float 3.0
      & info [ "duration" ] ~doc:"Simulated seconds of arrivals.")
  in
  Cmd.v
    (Cmd.info "overload"
       ~doc:
         "Open-loop overload experiment: Poisson arrivals with a rate \
          spike (optionally plus a transient-fault storm) against the \
          transactional service, with admission control, deadlines, \
          circuit breaker and typed load shedding — or without, to watch \
          the unprotected service collapse. Exits 1 if money is not \
          conserved.")
    Term.(
      const overload $ spike $ deadline $ no_admission $ no_deadlines $ storm
      $ seed $ duration)

(* ------------------------------------------------------------------ *)
(* repl                                                                *)
(* ------------------------------------------------------------------ *)

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
    (Cmd.info "repl" ~doc:"Interactive SQL shell over an mmdb database.")
    Term.(const run $ db_file $ with_demo)

let () =
  let doc = "Main-memory DBMS techniques (DeWitt et al., SIGMOD 1984)" in
  let info = Cmd.info "mmdb_cli" ~version:"1.0.0" ~doc in
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  exit
    (Cmd.eval'
       (Cmd.group ~default info
          [
            crossover_cmd; join_cmd; tps_cmd; recover_cmd; plan_cmd; sql_cmd;
            check_cmd; txncheck_cmd; torture_cmd; modelcheck_cmd;
            racecheck_cmd; lint_cmd; codes_cmd; stats_cmd;
            overload_cmd; repl_cmd;
          ]))
