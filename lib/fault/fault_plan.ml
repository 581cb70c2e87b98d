module U = Mmdb_util
module Overload = Mmdb_overload.Overload

type trigger =
  | Always
  | Prob of float
  | On_op of int
  | Every of int
  | Between of { lo : int; hi : int; every : int }

type rule = { site : Fault.site; kind : Fault.kind; trigger : trigger }

type t = {
  plan_rules : rule list;
  rng : U.Xorshift.t;
  plan_tally : Fault.tally;
  ops : (Fault.site, int) Hashtbl.t;
  mutable event_log : Fault.error list; (* reversed *)
  mutable event_count : int;
  mutable plan_budget : Overload.Retry.budget option;
      (* per-transaction retry allowance, shared by every device riding
         transients through this plan *)
}

let max_events = 10_000

let create ?(seed = 1) rules =
  List.iter
    (fun r ->
      match r.trigger with
      | Prob p when not (p >= 0.0 && p <= 1.0) ->
        invalid_arg "Fault_plan.create: probability outside [0, 1]"
      | On_op n when n <= 0 ->
        invalid_arg "Fault_plan.create: On_op must be positive"
      | Every n when n <= 0 ->
        invalid_arg "Fault_plan.create: Every must be positive"
      | Between { lo; hi; every } when lo <= 0 || hi < lo || every <= 0 ->
        invalid_arg "Fault_plan.create: Between needs 1 <= lo <= hi, every > 0"
      | Always | Prob _ | On_op _ | Every _ | Between _ -> ())
    rules;
  {
    plan_rules = rules;
    rng = U.Xorshift.create seed;
    plan_tally = Fault.tally_create ();
    ops = Hashtbl.create 8;
    event_log = [];
    event_count = 0;
    plan_budget = None;
  }

let none () = create []

let is_active t = t.plan_rules <> []
let tally t = t.plan_tally

let fires t trigger ~op =
  match trigger with
  | Always -> true
  | Prob p -> U.Xorshift.float t.rng 1.0 < p
  | On_op n -> op = n
  | Every n -> op mod n = 0
  | Between { lo; hi; every } -> op >= lo && op <= hi && (op - lo) mod every = 0

let draw t site =
  if t.plan_rules = [] then None
  else begin
    let op = 1 + Option.value ~default:0 (Hashtbl.find_opt t.ops site) in
    Hashtbl.replace t.ops site op;
    List.find_map
      (fun r ->
        if r.site = site && fires t r.trigger ~op then Some r.kind else None)
      t.plan_rules
  end

let peek t site =
  List.find_map
    (fun r ->
      let hit =
        match r.trigger with
        | Always | On_op 1 | Every 1 -> true
        | Prob p -> U.Xorshift.float t.rng 1.0 < p
        | On_op _ | Every _ | Between _ -> false
      in
      if r.site = site && hit then Some r.kind else None)
    t.plan_rules

let rand_int t bound = U.Xorshift.int t.rng bound

let log_event t ~code ~site detail =
  if t.event_count < max_events then begin
    t.event_log <- { Fault.code; site; detail } :: t.event_log;
    t.event_count <- t.event_count + 1
  end

let note_injected t ~code ~site detail =
  t.plan_tally.Fault.injected <- t.plan_tally.Fault.injected + 1;
  log_event t ~code ~site detail

let note_detected t ~code ~site detail =
  t.plan_tally.Fault.detected <- t.plan_tally.Fault.detected + 1;
  log_event t ~code ~site detail

let note_retried t ~backoff =
  t.plan_tally.Fault.retried <- t.plan_tally.Fault.retried + 1;
  t.plan_tally.Fault.retry_backoff <-
    t.plan_tally.Fault.retry_backoff +. backoff

let note_repaired t ~code ~site detail =
  t.plan_tally.Fault.repaired <- t.plan_tally.Fault.repaired + 1;
  log_event t ~code ~site detail

let note_unrecoverable t ~code ~site detail =
  t.plan_tally.Fault.unrecoverable <- t.plan_tally.Fault.unrecoverable + 1;
  log_event t ~code ~site detail

let event_counts t =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (e : Fault.error) ->
      Hashtbl.replace tbl e.Fault.code
        (1 + Option.value ~default:0 (Hashtbl.find_opt tbl e.Fault.code)))
    t.event_log;
  Hashtbl.fold (fun code n acc -> (code, n) :: acc) tbl []
  |> List.sort compare

(* The device retry curve lives in {!Overload.Retry}, the one curve every
   backoff loop shares: linear (attempt * 1 ms, 3 attempts), so torture
   and bench expectations keyed to those waits are unchanged. *)
let max_io_retries = Overload.Retry.max_attempts
let retry_backoff = Overload.Retry.backoff
let set_retry_budget t b = t.plan_budget <- b

(* The one transient-riding loop, shared by the simulated disk and the
   log devices: note the injection, then ride [failures] attempts —
   each one charges/waits through [attempt] — or raise the typed
   FAULT004 error when the per-attempt cap is exceeded.  A per-
   transaction budget installed with {!set_retry_budget} is drained one
   unit per retry across every device sharing this plan. *)
let ride_transient t ~site ~failures ~attempt =
  note_injected t ~code:"FAULT003" ~site
    (Printf.sprintf "%d transient failure(s)" failures);
  Overload.Retry.ride ?budget:t.plan_budget ~site ~failures
    ~attempt:(fun ~attempt:i ~backoff ->
      attempt ~attempt:i ~backoff;
      note_retried t ~backoff)
    ~exhausted:(fun ~retries ->
      Fault.io_error ~code:"FAULT004" ~site
        (Printf.sprintf "still failing after %d retries" retries))
    ()

(* CLI fault-mix atoms.  The mixes are chosen so the acceptance sweep
   ("torn-tail,bitflip") is detectable *and* lossless: torn writes only
   tear the page in flight at the crash (never-acknowledged commits),
   and bit flips hit the read path transiently (a reread is clean). *)
let spec_names =
  [
    ("torn-tail",
     "tear the log page in flight at the crash: only a prefix persists");
    ("bitflip",
     "transient bit flip on log-page reads; detected by checksum, reread");
    ("io-error", "transient log-device I/O errors, retried with backoff");
    ("battery-droop",
     "stable memory loses its newest batch at crash (partial battery)");
    ("snapshot-rot",
     "one checkpoint snapshot page corrupts at rest; rebuilt from the log");
    ("media",
     "permanent bit flip in a stored log page (typically unrecoverable)");
    ("storm",
     "burst of transient log-device faults over a write window (trips \
      the circuit breaker)");
    ("none", "empty plan");
  ]

let rules_of_atom = function
  | "torn-tail" ->
    Ok [ { site = Fault.Log_write; kind = Fault.Torn_write; trigger = Always } ]
  | "bitflip" ->
    Ok
      [ { site = Fault.Log_read; kind = Fault.Bit_flip_read;
          trigger = Every 3 } ]
  | "io-error" ->
    Ok
      [ { site = Fault.Log_write;
          kind = Fault.Io_transient { failures = 2 }; trigger = Every 5 } ]
  | "battery-droop" ->
    Ok
      [ { site = Fault.Stable_crash;
          kind = Fault.Battery_droop { batches = 1 }; trigger = Always } ]
  | "snapshot-rot" ->
    Ok [ { site = Fault.Snapshot; kind = Fault.Bit_flip_rest;
           trigger = On_op 1 } ]
  | "media" ->
    Ok [ { site = Fault.Log_write; kind = Fault.Bit_flip_rest;
           trigger = On_op 2 } ]
  | "storm" ->
    (* A dense fault burst over a window of log-page writes: every write
       in the window rides two transient failures, enough consecutive
       device errors to trip an armed circuit breaker and exercise its
       half-open probe once the window passes. *)
    Ok
      [ { site = Fault.Log_write;
          kind = Fault.Io_transient { failures = 2 };
          trigger = Between { lo = 10; hi = 60; every = 1 } } ]
  | "none" -> Ok []
  | atom -> Error (Printf.sprintf "unknown fault spec %S" atom)

let of_spec s =
  let atoms =
    String.split_on_char ',' s
    |> List.map String.trim
    |> List.filter (fun a -> a <> "")
  in
  List.fold_left
    (fun acc atom ->
      match (acc, rules_of_atom atom) with
      | Error _, _ -> acc
      | Ok _, Error e -> Error e
      | Ok rs, Ok more -> Ok (rs @ more))
    (Ok []) atoms
