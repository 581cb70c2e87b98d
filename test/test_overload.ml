(* Tests for the overload-resilient service layer: typed sheds, deadline
   expiry at every stage (lock wait, commit point),
   the circuit-breaker state machine, spike-mode fuzzing, and degraded
   modes.  The recurring assertion: every shed leaves the service clean —
   no locks held, no pinned frames, no balance drift, and a
   Schedule_check-clean audit trail. *)

module R = Mmdb_recovery
module U = Mmdb_util
module V = Mmdb_verify
module D = U.Diag
module O = Mmdb_overload.Overload
module C = Mmdb.Txn_db

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

let shed_of f =
  match f () with
  | _ -> None
  | exception O.Shed r -> Some r

let audit_clean db = V.Schedule_check.ok ~log:(C.log_records db) (C.schedule db)

(* ------------------------------------------------------------------ *)
(* Deadline expiry: lock stage (OVLD004)                               *)
(* ------------------------------------------------------------------ *)

let test_deadline_at_lock () =
  let db = C.create ~record_schedule:true () in
  let b0 = C.balance db 0 and b1 = C.balance db 1 in
  let d = O.Deadline.at (C.now db -. 1e-3) in
  (match shed_of (fun () -> C.transact ~deadline:d db [ (0, 5); (1, -5) ]) with
  | Some r ->
    checks "code" "OVLD004" r.O.code;
    checks "site" "txn.lock" r.O.site
  | None -> Alcotest.fail "expired transaction was not shed");
  checki "balance 0 untouched" b0 (C.balance db 0);
  checki "balance 1 untouched" b1 (C.balance db 1);
  checki "tally" 1 (C.overload_tally db).O.lock_timeouts;
  (* The slots are free again: a deadline-free retry commits. *)
  ignore (C.transact db [ (0, 5); (1, -5) ]);
  C.flush db;
  checki "retry committed" (b0 + 5) (C.balance db 0);
  checkb "audit clean" true (audit_clean db)

(* ------------------------------------------------------------------ *)
(* Deadline expiry: commit point (OVLD006, rolled back)                *)
(* ------------------------------------------------------------------ *)

let test_deadline_at_commit () =
  (* Each applied update burns 10 ms; a 15 ms budget survives the locks
     but expires at the commit point after both updates ran. *)
  let db = C.create ~record_schedule:true ~work_per_update:0.01 () in
  let b0 = C.balance db 0 and b1 = C.balance db 1 in
  let d = O.Deadline.make ~now:(C.now db) ~budget:0.015 in
  (match shed_of (fun () -> C.transact ~deadline:d db [ (0, 7); (1, -7) ]) with
  | Some r ->
    checks "code" "OVLD006" r.O.code;
    checks "site" "txn.commit" r.O.site
  | None -> Alcotest.fail "expired transaction was not shed");
  checki "balance 0 rolled back" b0 (C.balance db 0);
  checki "balance 1 rolled back" b1 (C.balance db 1);
  checki "tally" 1 (C.overload_tally db).O.commit_timeouts;
  ignore (C.transact db [ (0, 7); (1, -7) ]);
  C.flush db;
  checki "retry committed" (b0 + 7) (C.balance db 0);
  checkb "audit clean" true (audit_clean db)

(* ------------------------------------------------------------------ *)
(* Deadline expiry: mid lock wait (expire_waiters)                     *)
(* ------------------------------------------------------------------ *)

let test_deadline_mid_lock_wait () =
  let lm = R.Lock_manager.create () in
  checkb "holder granted" true (R.Lock_manager.acquire lm ~txn:1 ~key:7 <> None);
  let d = O.Deadline.make ~now:0.0 ~budget:1e-3 in
  checkb "waiter queued" true
    (R.Lock_manager.acquire ~deadline:d lm ~txn:2 ~key:7 = None);
  checki "not expired early" 0
    (List.length (R.Lock_manager.expire_waiters lm ~now:0.5e-3));
  (match R.Lock_manager.expire_waiters lm ~now:2e-3 with
  | [ 2 ] -> ()
  | l -> Alcotest.failf "expected waiter 2 expired, got %d ids" (List.length l));
  ignore (R.Lock_manager.release_abort lm ~txn:2);
  checki "victim holds no locks" 0 (List.length (R.Lock_manager.locks_held lm ~txn:2));
  checkb "holder undisturbed" true (R.Lock_manager.holder lm ~key:7 = Some 1);
  checkb "queue empty" true (R.Lock_manager.waiters lm ~key:7 = [])

(* ------------------------------------------------------------------ *)
(* Circuit breaker: state machine vs a reference model                 *)
(* ------------------------------------------------------------------ *)

type model = {
  mutable m_st : O.Breaker.state;
  mutable m_consec : int;
  mutable m_opened : float;
  mutable m_probe : bool;
  mutable m_trips : int;
  mutable m_probes : int;
  mutable m_reopens : int;
}

(* [Breaker]'s constants: 5 consecutive failures trip it, and it stays
   open for 50 ms. *)
let model_threshold = 5
let model_cooldown = 50e-3

let model_tick m ~now =
  match m.m_st with
  | O.Breaker.Open when now >= m.m_opened +. model_cooldown ->
    m.m_st <- O.Breaker.Half_open;
    m.m_probe <- false
  | O.Breaker.Open | O.Breaker.Closed | O.Breaker.Half_open -> ()

let model_trip m ~now ~reopen =
  m.m_st <- O.Breaker.Open;
  m.m_opened <- now;
  m.m_consec <- 0;
  m.m_probe <- false;
  if reopen then m.m_reopens <- m.m_reopens + 1
  else m.m_trips <- m.m_trips + 1

let model_apply m ~now op =
  model_tick m ~now;
  match op with
  | `Fail -> (
    match m.m_st with
    | O.Breaker.Closed ->
      m.m_consec <- m.m_consec + 1;
      if m.m_consec >= model_threshold then model_trip m ~now ~reopen:false
    | O.Breaker.Half_open -> model_trip m ~now ~reopen:true
    | O.Breaker.Open -> ())
  | `Succeed -> (
    match m.m_st with
    | O.Breaker.Closed -> m.m_consec <- 0
    | O.Breaker.Half_open ->
      m.m_st <- O.Breaker.Closed;
      m.m_consec <- 0;
      m.m_probe <- false
    | O.Breaker.Open -> ())
  | `Allow -> (
    match m.m_st with
    | O.Breaker.Closed | O.Breaker.Open -> ()
    | O.Breaker.Half_open ->
      if not m.m_probe then begin
        m.m_probe <- true;
        m.m_probes <- m.m_probes + 1
      end)

(* Decode a small int into an op: failures are likeliest so the model
   visits Open and Half_open often. *)
let op_of_int i =
  match i mod 10 with
  | 0 | 1 | 2 -> `Fail
  | 3 | 4 -> `Succeed
  | 5 | 6 -> `Allow
  | 7 -> `Advance 1e-3
  | 8 -> `Advance 6e-3
  | _ -> `Advance 12e-3

let new_model () =
  {
    m_st = O.Breaker.Closed;
    m_consec = 0;
    m_opened = 0.0;
    m_probe = false;
    m_trips = 0;
    m_probes = 0;
    m_reopens = 0;
  }

let new_breaker () = O.Breaker.create ()

(* Apply op [i] to both the breaker and the model; true while they
   agree. *)
let model_step b m now i =
  (match op_of_int i with
  | `Advance dt -> now := !now +. dt
  | (`Fail | `Succeed | `Allow) as op ->
    model_apply m ~now:!now op;
    (match op with
    | `Fail -> O.Breaker.record_failure b ~now:!now
    | `Succeed -> O.Breaker.record_success b ~now:!now
    | `Allow -> ignore (O.Breaker.allow b ~now:!now)));
  (* [Breaker.state] resolves the cooldown transition lazily; mirror
     that before comparing. *)
  model_tick m ~now:!now;
  O.Breaker.state b ~now:!now = m.m_st
  && O.Breaker.trips b = m.m_trips
  && O.Breaker.reopens b = m.m_reopens
  && O.Breaker.probes b = m.m_probes
  && O.Breaker.consecutive_failures b = m.m_consec

let qcheck_breaker_model =
  QCheck.Test.make ~name:"breaker follows the reference state machine"
    ~count:300
    QCheck.(list small_nat)
    (fun ops ->
      List.for_all (model_step (new_breaker ()) (new_model ()) (ref 0.0)) ops)

(* One long seeded run beside the QCheck property: 20,000 ops must agree
   step by step, and must trip, half-open, reopen and close so agreement
   is not vacuous. *)
let test_breaker_model_long_run () =
  let b = new_breaker () and m = new_model () in
  let rng = U.Xorshift.create 42 and now = ref 0.0 in
  let half_opened = ref false and closed = ref false in
  for step = 1 to 20_000 do
    let before = m.m_st in
    if not (model_step b m now (U.Xorshift.int rng 10)) then
      Alcotest.failf "breaker diverges from the model at op %d" step;
    if m.m_st = O.Breaker.Half_open then half_opened := true;
    if before = O.Breaker.Half_open && m.m_st = O.Breaker.Closed then
      closed := true
  done;
  checkb "tripped" true (m.m_trips > 0);
  checkb "half-opened" true !half_opened;
  checkb "reopened" true (m.m_reopens > 0);
  checkb "closed after a probe" true !closed

let test_breaker_cycle () =
  (* The canonical trip/probe cycle: threshold failures open it, the
     cooldown half-opens it, a failed probe reopens (OVLD010), a second
     cooldown and a clean probe close it. *)
  let b = O.Breaker.create () in
  for i = 1 to model_threshold - 1 do
    O.Breaker.record_failure b ~now:(float_of_int i *. 1e-4)
  done;
  checkb "still closed" true (O.Breaker.state b ~now:1e-3 = O.Breaker.Closed);
  O.Breaker.record_failure b ~now:1e-3;
  checkb "tripped open" true (O.Breaker.state b ~now:1e-3 = O.Breaker.Open);
  checki "trips" 1 (O.Breaker.trips b);
  checkb "sheds while open" false (O.Breaker.allow b ~now:2e-3);
  checkb "still open before the cooldown" true
    (O.Breaker.state b ~now:50e-3 = O.Breaker.Open);
  checkb "half-open after cooldown" true
    (O.Breaker.state b ~now:52e-3 = O.Breaker.Half_open);
  checkb "one probe admitted" true (O.Breaker.allow b ~now:52e-3);
  checkb "second probe refused" false (O.Breaker.allow b ~now:52e-3);
  O.Breaker.record_failure b ~now:53e-3;
  checkb "probe failure reopens" true
    (O.Breaker.state b ~now:53e-3 = O.Breaker.Open);
  checki "reopens" 1 (O.Breaker.reopens b);
  checkb "half-open again" true
    (O.Breaker.state b ~now:104e-3 = O.Breaker.Half_open);
  checkb "probe admitted again" true (O.Breaker.allow b ~now:104e-3);
  O.Breaker.record_success b ~now:105e-3;
  checkb "closed after clean probe" true
    (O.Breaker.state b ~now:105e-3 = O.Breaker.Closed);
  checki "no extra trips" 1 (O.Breaker.trips b)

(* ------------------------------------------------------------------ *)
(* Admission: priority classes and typed sheds                         *)
(* ------------------------------------------------------------------ *)

let test_admission_sheds () =
  let tally = O.tally_create () in
  let a = O.Admission.create ~rate:1e-6 ~burst:10.0 ~tally () in
  (* Drain below the analytic floor (0.5 * burst): analytics shed first. *)
  for _ = 1 to 6 do
    O.Admission.admit a ~now:0.0 ~priority:O.Oltp
  done;
  (match shed_of (fun () -> O.Admission.admit a ~now:0.0 ~priority:O.Analytic)
   with
  | Some r -> checks "analytic floor" "OVLD003" r.O.code
  | None -> Alcotest.fail "analytic arrival admitted below the floor");
  O.Admission.admit a ~now:0.0 ~priority:O.Oltp;
  (* Empty the bucket entirely: now OLTP sheds too. *)
  for _ = 1 to 3 do
    O.Admission.admit a ~now:0.0 ~priority:O.Oltp
  done;
  (match shed_of (fun () -> O.Admission.admit a ~now:0.0 ~priority:O.Oltp) with
  | Some r -> checks "bucket empty" "OVLD001" r.O.code
  | None -> Alcotest.fail "arrival admitted from an empty bucket");
  checki "admitted" 10 tally.O.admitted;
  checki "OVLD001 tallied" 1 tally.O.shed_bucket;
  checki "OVLD003 tallied" 1 tally.O.shed_analytic;
  (* Backlog limiter: a full bucket still sheds when the device lags. *)
  let b = O.Admission.create ~max_lag:0.1 () in
  (match
     shed_of (fun () -> O.Admission.admit b ~now:0.0 ~lag:0.5 ~priority:O.Oltp)
   with
  | Some r -> checks "backlog" "OVLD002" r.O.code
  | None -> Alcotest.fail "arrival admitted over a lagging device")

let test_admission_breaker_degraded () =
  (* Shed-analytics degraded mode: while a registered breaker is open,
     the analytic class sheds OVLD007 and OLTP keeps flowing. *)
  let a = O.Admission.create () in
  let b = O.Breaker.create () in
  O.Admission.register_breaker a b;
  for _ = 1 to model_threshold do
    O.Breaker.record_failure b ~now:0.0
  done;
  checkb "breaker open" true (O.Breaker.state b ~now:0.0 = O.Breaker.Open);
  (match shed_of (fun () -> O.Admission.admit a ~now:0.0 ~priority:O.Analytic)
   with
  | Some r -> checks "analytic shed" "OVLD007" r.O.code
  | None -> Alcotest.fail "analytic arrival admitted with breaker open");
  O.Admission.admit a ~now:0.0 ~priority:O.Oltp

(* ------------------------------------------------------------------ *)
(* Retry budget (OVLD008)                                              *)
(* ------------------------------------------------------------------ *)

let test_retry_budget () =
  let b = O.Retry.budget 1 in
  match
    shed_of (fun () ->
        O.Retry.ride ~budget:b ~site:"disk.read" ~failures:2
          ~attempt:(fun ~attempt:_ ~backoff:_ -> ())
          ~exhausted:(fun ~retries:_ ->
            Alcotest.fail "policy exhausted before the budget")
          ())
  with
  | Some r -> checks "budget dry" "OVLD008" r.O.code
  | None -> Alcotest.fail "ride succeeded past a dry budget"

(* ------------------------------------------------------------------ *)
(* Degraded read-only mode after a crash (OVLD009)                     *)
(* ------------------------------------------------------------------ *)

let test_read_only_degraded () =
  let a = O.Admission.create () in
  let db = C.create ~admission:a () in
  ignore (C.transact db [ (0, 5); (1, -5) ]);
  C.flush db;
  ignore (C.checkpoint db);
  C.crash db;
  checkb "read-only mode" true (O.Admission.mode a = O.Admission.Read_only);
  checki "stale read still answers" 5 (C.balance_stale db 0);
  (match shed_of (fun () -> C.transact db [ (0, 1); (1, -1) ]) with
  | Some r ->
    checks "write shed" "OVLD009" r.O.code;
    checks "site" "txn.begin" r.O.site
  | None -> Alcotest.fail "write admitted while crashed");
  checki "tally" 1 (C.overload_tally db).O.shed_readonly;
  ignore (C.recover db);
  checkb "normal mode restored" true (O.Admission.mode a = O.Admission.Normal);
  ignore (C.transact db [ (0, 1); (1, -1) ]);
  C.flush db;
  checki "writes flow again" 6 (C.balance db 0)

(* ------------------------------------------------------------------ *)
(* Spike-mode fuzzing                                                  *)
(* ------------------------------------------------------------------ *)

let spike_case =
  { V.Txn_fuzz.seed = 11; txns = 120; domains = 1; scramble = false;
    crash = false; spike = true; inject = [] }

let test_spike_fuzz () =
  let o = V.Txn_fuzz.run spike_case in
  checkb "no audit errors" false (D.has_errors o.V.Txn_fuzz.diags);
  checkb "work still done" true (o.V.Txn_fuzz.committed > 0);
  checkb "bucket sheds (OVLD001)" true
    (List.mem_assoc "OVLD001" o.V.Txn_fuzz.ovld_codes);
  checkb "lock-wait timeouts (OVLD004)" true
    (List.mem_assoc "OVLD004" o.V.Txn_fuzz.ovld_codes);
  (* Only those two stages can shed in this driver. *)
  List.iter
    (fun (c, _) ->
      checkb (c ^ " expected") true (c = "OVLD001" || c = "OVLD004"))
    o.V.Txn_fuzz.ovld_codes

let test_spike_fuzz_deterministic () =
  let a = V.Txn_fuzz.run spike_case in
  let b = V.Txn_fuzz.run spike_case in
  checkb "same codes" true (a.V.Txn_fuzz.ovld_codes = b.V.Txn_fuzz.ovld_codes);
  checkb "same log" true (a.V.Txn_fuzz.log = b.V.Txn_fuzz.log)

(* ------------------------------------------------------------------ *)
(* Overload_sim: the spike driver stays clean                          *)
(* ------------------------------------------------------------------ *)

let test_sim_clean () =
  let module OS = Mmdb.Overload_sim in
  let o =
    OS.run
      { OS.default_config with OS.duration = 1.0; record_schedule = true }
  in
  checkb "money conserved" true o.OS.money_conserved;
  checki "audit errors" 0 o.OS.audit_errors;
  checkb "goodput" true (o.OS.goodput_txns > 0);
  checkb "sheds typed" true (o.OS.shed = 0 || o.OS.shed_codes <> [])

(* Seeded open-loop spike runs through the full service layer: a calm
   spike, and a spike plus transient-fault storm that must trip the
   breaker and shed typed OVLD007 while it is open. *)
let test_sim_spike_runs () =
  let module OS = Mmdb.Overload_sim in
  List.iter
    (fun (seed, storm) ->
      let o =
        OS.run
          {
            OS.default_config with
            OS.seed;
            duration = 2.0;
            storm;
            record_schedule = true;
          }
      in
      let msg what = Printf.sprintf "seed %d: %s" seed what in
      checkb (msg "goodput") true (o.OS.goodput_txns > 0);
      checkb (msg "money conserved") true o.OS.money_conserved;
      checki (msg "audit errors") 0 o.OS.audit_errors;
      checkb (msg "load shed or timed out") true
        (o.OS.shed + o.OS.timed_out > 0);
      if storm then begin
        checkb (msg "breaker tripped") true (o.OS.breaker_trips >= 1);
        checkb (msg "OVLD007 shed") true
          (List.mem_assoc "OVLD007" o.OS.shed_codes)
      end)
    [ (7, false); (20260808, true) ]

(* The default 3 s storm at seed 7 conserves money with and without the
   protections armed. *)
let test_sim_storm_conserves_money () =
  let module OS = Mmdb.Overload_sim in
  List.iter
    (fun protected ->
      let o =
        OS.run
          {
            OS.default_config with
            OS.seed = 7;
            duration = 3.0;
            storm = true;
            protected;
          }
      in
      checkb
        (Printf.sprintf "protected=%b: money conserved" protected)
        true o.OS.money_conserved)
    [ true; false ]

(* ------------------------------------------------------------------ *)
(* Catalogue                                                           *)
(* ------------------------------------------------------------------ *)

let test_code_catalogue () =
  List.iter
    (fun c -> checkb (c ^ " catalogued") true (List.mem_assoc c V.code_catalogue))
    [
      "OVLD001"; "OVLD002"; "OVLD003"; "OVLD004"; "OVLD006";
      "OVLD007"; "OVLD008"; "OVLD009"; "OVLD010";
    ];
  let all = List.map fst V.code_catalogue in
  checki "no duplicate codes" (List.length all)
    (List.length (List.sort_uniq compare all))

let () =
  Alcotest.run "mmdb overload"
    [
      ( "deadlines",
        [
          Alcotest.test_case "expiry at lock (OVLD004)" `Quick
            test_deadline_at_lock;
          Alcotest.test_case "expiry at commit (OVLD006)" `Quick
            test_deadline_at_commit;
          Alcotest.test_case "expiry mid lock wait" `Quick
            test_deadline_mid_lock_wait;
        ] );
      ( "breaker",
        [
          Alcotest.test_case "trip/probe/reopen/close cycle" `Quick
            test_breaker_cycle;
          QCheck_alcotest.to_alcotest qcheck_breaker_model;
          Alcotest.test_case "20k seeded ops follow the model" `Quick
            test_breaker_model_long_run;
        ] );
      ( "admission",
        [
          Alcotest.test_case "typed sheds and priorities" `Quick
            test_admission_sheds;
          Alcotest.test_case "breaker-open degraded mode" `Quick
            test_admission_breaker_degraded;
          Alcotest.test_case "retry budget (OVLD008)" `Quick test_retry_budget;
          Alcotest.test_case "read-only after crash (OVLD009)" `Quick
            test_read_only_degraded;
        ] );
      ( "spike",
        [
          Alcotest.test_case "fuzz under spike stays clean" `Quick
            test_spike_fuzz;
          Alcotest.test_case "spike fuzz deterministic" `Quick
            test_spike_fuzz_deterministic;
          Alcotest.test_case "overload sim clean" `Quick test_sim_clean;
          Alcotest.test_case "seeded spike runs" `Quick test_sim_spike_runs;
          Alcotest.test_case "storm conserves money" `Quick
            test_sim_storm_conserves_money;
        ] );
      ( "catalogue",
        [ Alcotest.test_case "OVLD codes catalogued" `Quick test_code_catalogue ] );
    ]
