(* Tests for the domain-safety pass: a hand-built corpus of racy and
   race-free schedules asserting the exact RACE codes the schedule
   auditor reports, fuzz determinism and injected positive
   controls, the MVCC snapshot-discipline rule, and the RACE family of
   the static lint over synthetic sources, including how the three lint
   families share one parse. *)

module R = Mmdb_recovery
module U = Mmdb_util
module D = U.Diag
module V = Mmdb_verify
module Sch = R.Schedule
module SC = V.Schedule_check
module L = V.Lint

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let ev ?key ?(domain = 0) ?ver ~t ~txn kind =
  { Sch.time = t; txn; key; domain; ver; kind }

let race code = String.starts_with ~prefix:"RACE" code

(* The race codes the schedule auditor reports for [trace]. *)
let races diags = List.filter (fun (d : D.t) -> race d.D.code) diags
let audit trace = races (SC.audit trace)

let codes diags = List.sort_uniq compare (List.map (fun d -> d.D.code) diags)
let check_codes msg expected diags =
  Alcotest.(check (list string)) msg expected (codes diags)

(* ------------------------------------------------------------------ *)
(* Hand-built schedules                                                *)
(* ------------------------------------------------------------------ *)

(* The same two cross-domain writes, with and without 2PL.  Locked: the
   release -> grant edge orders them and the shared lockset is {7}, so
   the trace is race-free.  Unlocked: the write/write pair is unordered
   (RACE001) and no lock guards key 7 (RACE003) — the race 2PL would
   have prevented. *)
let ww_locked () =
  [
    ev ~key:7 ~t:0.001 ~txn:1 ~domain:0 Sch.Acquire;
    ev ~key:7 ~t:0.001 ~txn:1 ~domain:0 (Sch.Grant { deps = [] });
    ev ~key:7 ~t:0.002 ~txn:1 ~domain:0 Sch.Write;
    ev ~key:7 ~t:0.003 ~txn:1 ~domain:0 Sch.Release;
    ev ~key:7 ~t:0.004 ~txn:2 ~domain:1 Sch.Acquire;
    ev ~key:7 ~t:0.004 ~txn:2 ~domain:1 (Sch.Grant { deps = [] });
    ev ~key:7 ~t:0.005 ~txn:2 ~domain:1 Sch.Write;
    ev ~key:7 ~t:0.006 ~txn:2 ~domain:1 Sch.Release;
  ]

let ww_unlocked () =
  [
    ev ~key:7 ~t:0.002 ~txn:1 ~domain:0 Sch.Write;
    ev ~key:7 ~t:0.005 ~txn:2 ~domain:1 Sch.Write;
  ]

let test_ww_2pl_prevents () =
  check_codes "locked ww is clean" [] (audit (ww_locked ()));
  check_codes "unlocked ww races"
    [ "RACE001"; "RACE003" ]
    (audit (ww_unlocked ()))

let test_rw_race () =
  let trace =
    [
      ev ~key:3 ~t:0.001 ~txn:1 ~domain:0 Sch.Read;
      ev ~key:3 ~t:0.002 ~txn:2 ~domain:1 Sch.Write;
    ]
  in
  check_codes "read/write race" [ "RACE002"; "RACE003" ] (audit trace)

(* Two lock-free reads from two domains: no conflicting pair for the
   vector clocks, so only the Eraser lockset fallback fires. *)
let test_lockset_fallback_only () =
  let trace =
    [
      ev ~key:4 ~t:0.001 ~txn:1 ~domain:0 Sch.Read;
      ev ~key:4 ~t:0.002 ~txn:2 ~domain:1 Sch.Read;
    ]
  in
  check_codes "empty lockset" [ "RACE003" ] (audit trace)

(* Both writers hold a common lock on key 9 the whole time (a broken
   lock manager granted it twice), so the candidate lockset is non-empty
   and RACE003 stays quiet — but the writes to key 5 are unordered, so
   the vector clocks still catch RACE001 alone. *)
let test_ww_without_lockset_noise () =
  let trace =
    [
      ev ~key:9 ~t:0.001 ~txn:1 ~domain:0 (Sch.Grant { deps = [] });
      ev ~key:9 ~t:0.001 ~txn:2 ~domain:1 (Sch.Grant { deps = [] });
      ev ~key:5 ~t:0.002 ~txn:1 ~domain:0 Sch.Write;
      ev ~key:5 ~t:0.003 ~txn:2 ~domain:1 Sch.Write;
    ]
  in
  check_codes "vector clocks alone" [ "RACE001" ] (audit trace)

let test_release_without_acquire () =
  let trace = [ ev ~key:2 ~t:0.001 ~txn:1 ~domain:0 Sch.Release ] in
  check_codes "protocol break" [ "RACE004" ] (audit trace)

(* Snapshot discipline.  A version installed below a snapshot while the
   snapshot's scan is in flight races (the scan straddles the install);
   the same install before the scan begins, or a higher-timestamped
   install mid-scan, is the normal MVCC regime. *)
let test_snapshot_discipline () =
  let racy =
    [
      ev ~key:1 ~t:0.001 ~txn:10 ~domain:1 ~ver:10.0 Sch.Read;
      ev ~key:1 ~t:0.002 ~txn:2 ~domain:0 ~ver:5.0 Sch.Write;
      ev ~key:2 ~t:0.003 ~txn:10 ~domain:1 ~ver:10.0 Sch.Read;
    ]
  in
  check_codes "install below active snapshot" [ "RACE005" ] (audit racy);
  let clean_before =
    [
      ev ~key:1 ~t:0.001 ~txn:2 ~domain:0 ~ver:5.0 Sch.Write;
      ev ~key:1 ~t:0.002 ~txn:10 ~domain:1 ~ver:10.0 Sch.Read;
      ev ~key:2 ~t:0.003 ~txn:10 ~domain:1 ~ver:10.0 Sch.Read;
    ]
  in
  check_codes "install before snapshot" [] (audit clean_before);
  let clean_above =
    [
      ev ~key:1 ~t:0.001 ~txn:10 ~domain:1 ~ver:10.0 Sch.Read;
      ev ~key:1 ~t:0.002 ~txn:2 ~domain:0 ~ver:15.0 Sch.Write;
      ev ~key:2 ~t:0.003 ~txn:10 ~domain:1 ~ver:10.0 Sch.Read;
    ]
  in
  check_codes "install above snapshot" [] (audit clean_above)

(* Single-domain traces are totally ordered: the historical (unstamped)
   emitters must keep auditing clean whatever they interleave. *)
let test_single_domain_clean () =
  let trace =
    [
      ev ~key:1 ~t:0.001 ~txn:1 Sch.Write;
      ev ~key:1 ~t:0.002 ~txn:2 Sch.Read;
      ev ~key:1 ~t:0.003 ~txn:2 Sch.Write;
      ev ~key:1 ~t:0.004 ~txn:3 Sch.Release;
    ]
  in
  (* ... except a release-without-acquire, which is domain-count
     independent. *)
  check_codes "single domain" [ "RACE004" ] (audit trace)

(* ------------------------------------------------------------------ *)
(* Fuzzer integration                                                  *)
(* ------------------------------------------------------------------ *)

let case ~domains seed =
  { V.Txn_fuzz.seed; txns = 40; domains; scramble = false; crash = false;
    spike = false; inject = [] }

let test_fuzz_clean_multi_domain () =
  List.iter
    (fun (domains, seed) ->
      let o = V.Txn_fuzz.run (case ~domains seed) in
      check_codes
        (Printf.sprintf "%d domains, seed %d race-free" domains seed)
        [] (races o.V.Txn_fuzz.diags);
      checkb
        (Printf.sprintf "%d domains, seed %d spans domains" domains seed)
        true
        (List.length (Sch.domains o.V.Txn_fuzz.events) >= 3))
    [ (3, 11); (3, 22); (3, 33); (3, 20260807); (4, 11); (4, 22) ]

let test_fuzz_injections_detected () =
  let o =
    V.Txn_fuzz.run
      { (case ~domains:3 11) with
        inject = [ `Ww; `Rw; `Unguarded; `Release_no_acquire; `Snapshot ];
      }
  in
  Alcotest.(check (list string))
    "expected codes"
    [ "RACE001"; "RACE002"; "RACE003"; "RACE004"; "RACE005" ]
    (List.sort_uniq compare o.V.Txn_fuzz.injected);
  let found = codes (races o.V.Txn_fuzz.diags) in
  List.iter
    (fun c -> checkb (c ^ " detected") true (List.mem c found))
    o.V.Txn_fuzz.injected

let test_fuzz_seed_determinism () =
  let run () =
    let o = V.Txn_fuzz.run { (case ~domains:4 77) with inject = [ `Ww ] } in
    ( List.length o.V.Txn_fuzz.events,
      o.V.Txn_fuzz.committed,
      o.V.Txn_fuzz.aborted,
      List.map
        (fun (d : D.t) -> (d.D.code, d.D.path))
        (races o.V.Txn_fuzz.diags) )
  in
  checkb "same seed, same findings" true (run () = run ());
  let o1 = V.Txn_fuzz.run (case ~domains:2 5)
  and o2 = V.Txn_fuzz.run (case ~domains:2 6) in
  checkb "different seeds differ" true
    (o1.V.Txn_fuzz.events <> o2.V.Txn_fuzz.events)

let test_mvcc_trace_clean () =
  List.iter
    (fun (seed, n_writers) ->
      let r =
        R.Mvcc_sim.run ~seed ~n_writers ~record_schedule:true
          R.Mvcc_sim.Versioning
      in
      let msg what =
        Printf.sprintf "seed %d, %d writers: %s" seed n_writers what
      in
      checkb (msg "events recorded") true (List.length r.R.Mvcc_sim.events > 0);
      Alcotest.(check (list int))
        (msg "writers on 0, readers on 1") [ 0; 1 ]
        (Sch.domains r.R.Mvcc_sim.events);
      checkb (msg "snapshots consistent") true
        r.R.Mvcc_sim.snapshots_consistent;
      check_codes (msg "clean MVCC trace") [] (audit r.R.Mvcc_sim.events))
    [ (83, 3_000); (83, 4_000); (11, 2_000) ];
  (* Off by default: the unstamped path stays valid. *)
  let r0 = R.Mvcc_sim.run ~seed:83 ~n_writers:100 R.Mvcc_sim.Versioning in
  checki "no recording by default" 0 (List.length r0.R.Mvcc_sim.events)

(* A 4-partition adaptive-logging recovery records its domain-stamped
   Grant/Write/Release schedule; no two domains may make conflicting
   accesses to one slot without a happens-before edge between them.
   Cross-partition commands are split by partition, so each slot's
   replay writes all come from the partition that owns it. *)
let test_parallel_replay_race_free () =
  let module RM = R.Recovery_manager in
  let o =
    RM.run
      {
        RM.default_config with
        RM.nrecords = 200;
        records_per_page = 10;
        updates_per_txn = 4;
        n_txns = 300;
        checkpoint_every = Some 100;
        crash_after = Some 260;
        seed = 29;
        replay =
          {
            RM.workers = 4;
            use_domains = false;
            logging = RM.Adaptive_logging;
            crash_steps = None;
            record_replay = true;
          };
      }
  in
  checkb "replay events recorded" true (o.RM.replay_events <> []);
  checkb "recovery consistent" true o.RM.consistent;
  checkb "replay schedule race-free" false
    (D.has_errors (audit o.RM.replay_events))

let test_audit_race_component () =
  let diags = SC.audit (ww_unlocked ()) in
  check_codes "schedule audit reports races" [ "RACE001"; "RACE003" ]
    (races diags);
  checkb "the audit report fails on them" false
    (V.Audit.report (Format.formatter_of_buffer (Buffer.create 256))
       [ ("ww", diags) ])

(* ------------------------------------------------------------------ *)
(* Static lint                                                         *)
(* ------------------------------------------------------------------ *)

(* The RACE findings and diagnostics of a corpus of [(path, source)]. *)
let lint sources =
  let findings, diags = L.analyze sources in
  ( List.filter (fun (f : L.finding) -> race f.L.code) findings,
    List.filter (fun (d : D.t) -> race d.D.code) diags )

let scan ~file source =
  match lint [ (file, source) ] with
  | sites, [] -> sites
  | _, d :: _ -> Alcotest.fail ("unexpected parse failure: " ^ d.D.message)

let flagged sites =
  List.filter_map
    (fun (s : L.finding) ->
      match s.L.status with
      | L.Flagged -> Some (s.L.name, s.L.code)
      | _ -> None)
    sites

let test_lint_classification () =
  let src =
    String.concat "\n"
      [
        "let counter = ref 0";
        "";
        "(* race_check: test-only, never shared *)";
        "let justified = ref 0";
        "let guarded = Mutex.create ()";
        "let cell = Atomic.make 0";
        "let table = lazy (Array.make 4 0)";
        "let rng = Xorshift.create 42";
        "let cache : (int, int) Hashtbl.t = Hashtbl.create 8";
        "type t = { mutable x : int; y : int }";
        "let use (v : t) = ignore counter; ignore justified; ignore guarded;";
        "  ignore cell; ignore table; ignore rng; ignore cache; v.y";
      ]
  in
  let sites = scan ~file:"synthetic.ml" src in
  Alcotest.(check (list (pair string string)))
    "flagged sites"
    [
      ("counter", "RACE101"); ("table", "RACE102"); ("rng", "RACE103");
      ("cache", "RACE101");
    ]
    (flagged sites);
  let status_of name =
    List.find_map
      (fun (s : L.finding) -> if s.L.name = name then Some s.L.status else None)
      sites
  in
  (match status_of "justified" with
  | Some (L.Justified why) ->
    checkb "justification text kept" true (why = "test-only, never shared")
  | _ -> Alcotest.fail "justified not whitelisted");
  (match status_of "guarded" with
  | Some (L.Safe _) -> ()
  | _ -> Alcotest.fail "Mutex.create not classified safe");
  (match status_of "cell" with
  | Some (L.Safe _) -> ()
  | _ -> Alcotest.fail "Atomic.make not classified safe");
  checkb "mutable record type not inventoried" true (status_of "t" = None);
  (* The error formatter covers flagged sites only. *)
  checki "one diag per flagged site" 4
    (List.length (L.diags_of_findings sites))

let test_lint_parse_failure () =
  match lint [ ("broken.ml", "let = = =") ] with
  | _, [ d ] -> Alcotest.(check string) "RACE100" "RACE100" d.D.code
  | _ -> Alcotest.fail "expected parse failure"

let test_lint_whitelist_distance () =
  (* The marker is honoured at most two lines above the binding. *)
  let near =
    "(* race_check: close enough *)\n\n\nlet x = ref 0\nlet _ = x"
  in
  Alcotest.(check (list (pair string string)))
    "marker out of range flags" [ ("x", "RACE101") ]
    (flagged (scan ~file:"near.ml" near))

(* One source trips a RACE101, a PERF101 and an EXN104; each sits under
   a justification marker of the wrong family, then of its own. *)
let three_families ~race ~perf ~exn =
  String.concat "\n"
    [
      Printf.sprintf "(* %s fixture *)" race;
      "let counter = ref 0";
      "";
      "";
      Printf.sprintf "(* %s fixture *)" perf;
      "let add_tail xs x = xs @ [ x ]";
      "";
      "";
      Printf.sprintf "(* %s fixture *)" exn;
      "let f () = try g () with e -> cleanup (); raise e";
    ]

let test_marker_isolation () =
  let run src =
    match L.analyze [ ("lib/core/fixture.ml", src) ] with
    | findings, [] -> findings
    | _ -> Alcotest.fail "unexpected parse failure"
  in
  let wrong =
    run (three_families ~race:"perf_lint:" ~perf:"exn_flow:" ~exn:"race_check:")
  in
  Alcotest.(check (list (pair string int)))
    "another family's marker justifies nothing"
    [ ("RACE101", 2); ("PERF101", 6); ("EXN104", 10) ]
    (List.filter_map
       (fun (f : L.finding) ->
         if f.L.status = L.Flagged then Some (f.L.code, f.L.line) else None)
       wrong);
  let right =
    run (three_families ~race:"race_check:" ~perf:"perf_lint:" ~exn:"exn_flow:")
  in
  Alcotest.(check (list (pair string int)))
    "its own marker justifies each"
    [ ("RACE101", 2); ("PERF101", 6); ("EXN104", 10) ]
    (List.filter_map
       (fun (f : L.finding) ->
         match f.L.status with
         | L.Justified "fixture" -> Some (f.L.code, f.L.line)
         | _ -> None)
       right);
  checki "no diagnostics once justified" 0
    (List.length (L.diags_of_findings right))

(* A file that does not parse costs one diagnostic per family; the other
   files are still linted by all three. *)
let test_lint_one_unparseable_file () =
  let findings, diags =
    L.analyze
      [
        ("lib/core/bad.ml", "let = (");
        ( "lib/core/good.ml",
          "let counter = ref 0\n\
           let add_tail xs x = xs @ [ x ]\n\
           let f () = try g () with e -> raise e" );
      ]
  in
  Alcotest.(check (list (pair string string)))
    "one parse failure per family"
    [
      ("RACE100", "lib/core/bad.ml"); ("PERF100", "lib/core/bad.ml");
      ("EXN100", "lib/core/bad.ml");
    ]
    (List.map (fun (d : D.t) -> (d.D.code, d.D.path)) diags);
  Alcotest.(check (list string))
    "the other file's findings still reported"
    [ "EXN104"; "PERF101"; "RACE101" ]
    (List.sort_uniq compare
       (List.filter_map
          (fun (f : L.finding) ->
            if f.L.file = "lib/core/good.ml" && f.L.status = L.Flagged then
              Some f.L.code
            else None)
          findings))

let test_lint_repo_sources_clean () =
  match L.scan_lib () with
  | Error m -> Alcotest.fail m
  | Ok (findings, parse_diags) ->
    let sites = List.filter (fun (f : L.finding) -> race f.L.code) findings in
    checkb "repo has mutable-state sites" true (List.length sites > 0);
    check_codes "repo lint clean" []
      (List.filter
         (fun (d : D.t) -> race d.D.code)
         (parse_diags @ L.diags_of_findings sites))

let test_code_catalogue () =
  let all = List.map fst V.code_catalogue in
  List.iter
    (fun c -> checkb (c ^ " catalogued") true (List.mem c all))
    [
      "RACE001"; "RACE002"; "RACE003"; "RACE004"; "RACE005"; "RACE100";
      "RACE101"; "RACE102"; "RACE103";
    ];
  checki "codes unique" (List.length all)
    (List.length (List.sort_uniq compare all))

let () =
  Alcotest.run "racecheck"
    [
      ( "schedules",
        [
          Alcotest.test_case "ww race 2PL prevents (RACE001)" `Quick
            test_ww_2pl_prevents;
          Alcotest.test_case "rw race (RACE002)" `Quick test_rw_race;
          Alcotest.test_case "lockset fallback (RACE003)" `Quick
            test_lockset_fallback_only;
          Alcotest.test_case "clocks without lockset noise" `Quick
            test_ww_without_lockset_noise;
          Alcotest.test_case "release w/o acquire (RACE004)" `Quick
            test_release_without_acquire;
          Alcotest.test_case "snapshot discipline (RACE005)" `Quick
            test_snapshot_discipline;
          Alcotest.test_case "single domain clean" `Quick
            test_single_domain_clean;
        ] );
      ( "fuzz",
        [
          Alcotest.test_case "clean multi-domain seeds" `Quick
            test_fuzz_clean_multi_domain;
          Alcotest.test_case "injections all detected" `Quick
            test_fuzz_injections_detected;
          Alcotest.test_case "seed determinism" `Quick
            test_fuzz_seed_determinism;
          Alcotest.test_case "MVCC trace clean" `Quick test_mvcc_trace_clean;
          Alcotest.test_case "parallel replay race-free" `Quick
            test_parallel_replay_race_free;
          Alcotest.test_case "audit component" `Quick
            test_audit_race_component;
        ] );
      ( "lint",
        [
          Alcotest.test_case "classification" `Quick test_lint_classification;
          Alcotest.test_case "parse failure (RACE100)" `Quick
            test_lint_parse_failure;
          Alcotest.test_case "whitelist distance" `Quick
            test_lint_whitelist_distance;
          Alcotest.test_case "marker isolation across families" `Quick
            test_marker_isolation;
          Alcotest.test_case "one unparseable file" `Quick
            test_lint_one_unparseable_file;
          Alcotest.test_case "repo sources clean" `Quick
            test_lint_repo_sources_clean;
          Alcotest.test_case "code catalogue" `Quick test_code_catalogue;
        ] );
    ]
