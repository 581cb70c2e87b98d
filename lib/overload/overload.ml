(* ------------------------------------------------------------------ *)
(* Typed rejection                                                     *)
(* ------------------------------------------------------------------ *)

type reason = { code : string; site : string; detail : string }

exception Shed of reason

let () =
  Printexc.register_printer (function
    | Shed { code; site; detail } ->
      Some (Printf.sprintf "Overload.Shed { %s at %s: %s }" code site detail)
    | _ -> None)

let shed ~code ~site detail = raise (Shed { code; site; detail })

type priority = Oltp | Analytic

let priority_name = function Oltp -> "oltp" | Analytic -> "analytic"

(* ------------------------------------------------------------------ *)
(* Shared tally                                                        *)
(* ------------------------------------------------------------------ *)

type tally = {
  mutable admitted : int;
  mutable shed_bucket : int; (* OVLD001 *)
  mutable shed_backlog : int; (* OVLD002 *)
  mutable shed_analytic : int; (* OVLD003 *)
  mutable lock_timeouts : int; (* OVLD004 *)
  mutable commit_timeouts : int; (* OVLD006 *)
  mutable shed_breaker : int; (* OVLD007 *)
  mutable budget_exhausted : int; (* OVLD008 *)
  mutable shed_readonly : int; (* OVLD009 *)
  mutable breaker_trips : int;
  mutable breaker_reopens : int; (* OVLD010 *)
}

let tally_create () =
  {
    admitted = 0;
    shed_bucket = 0;
    shed_backlog = 0;
    shed_analytic = 0;
    lock_timeouts = 0;
    commit_timeouts = 0;
    shed_breaker = 0;
    budget_exhausted = 0;
    shed_readonly = 0;
    breaker_trips = 0;
    breaker_reopens = 0;
  }

let note_code t code =
  match code with
  | "OVLD001" -> t.shed_bucket <- t.shed_bucket + 1
  | "OVLD002" -> t.shed_backlog <- t.shed_backlog + 1
  | "OVLD003" -> t.shed_analytic <- t.shed_analytic + 1
  | "OVLD004" -> t.lock_timeouts <- t.lock_timeouts + 1
  | "OVLD006" -> t.commit_timeouts <- t.commit_timeouts + 1
  | "OVLD007" -> t.shed_breaker <- t.shed_breaker + 1
  | "OVLD008" -> t.budget_exhausted <- t.budget_exhausted + 1
  | "OVLD009" -> t.shed_readonly <- t.shed_readonly + 1
  | "OVLD010" -> t.breaker_reopens <- t.breaker_reopens + 1
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Retry: one backoff policy for every retry loop                      *)
(* ------------------------------------------------------------------ *)

module Retry = struct
  (* The device curve predates this module: linear [attempt * 1 ms],
     three attempts.  Its exact values are baked into deterministic
     torture and bench expectations, so they are constants here rather
     than something each device re-derives. *)
  let step = 1e-3
  let max_attempts = 3

  let backoff ~attempt =
    if attempt <= 0 then invalid_arg "Retry.backoff: attempt <= 0";
    float_of_int attempt *. step

  type budget = { mutable left : int; size : int }

  let budget n =
    if n < 0 then invalid_arg "Retry.budget: negative";
    { left = n; size = n }

  let take b =
    if b.left <= 0 then false
    else begin
      b.left <- b.left - 1;
      true
    end

  (* The one transient-riding loop shared by the simulated disk and the
     log devices.  [attempt] performs one failed try (charge the device,
     note the retry, wait out [backoff]); [exhausted] must raise the
     caller's typed error.  An optional per-transaction [budget] is
     drained one unit per retry across every device sharing it. *)
  let ride ?budget ~site ~failures ~attempt ~exhausted () =
    if failures > max_attempts then exhausted ~retries:max_attempts
    else
      for i = 1 to failures do
        (match budget with
        | Some b when not (take b) ->
          shed ~code:"OVLD008" ~site
            (Printf.sprintf
               "per-transaction retry budget (%d) exhausted at attempt %d"
               b.size i)
        | Some _ | None -> ());
        attempt ~attempt:i ~backoff:(backoff ~attempt:i)
      done
end

(* ------------------------------------------------------------------ *)
(* Circuit breaker                                                     *)
(* ------------------------------------------------------------------ *)

module Breaker = struct
  type state = Closed | Open | Half_open

  let state_name = function
    | Closed -> "closed"
    | Open -> "open"
    | Half_open -> "half-open"

  type t = {
    threshold : int;
    cooldown : float;
    tally : tally;
    mutable st : state;
    mutable consecutive : int;
    mutable opened_at : float;
    mutable probe_inflight : bool;
    mutable trips : int;
    mutable probes : int;
    mutable reopens : int;
  }

  let create ?(threshold = 5) ?(cooldown = 50e-3) ?tally () =
    if threshold <= 0 then invalid_arg "Breaker.create: threshold <= 0";
    if cooldown <= 0.0 then invalid_arg "Breaker.create: cooldown <= 0";
    {
      threshold;
      cooldown;
      tally = (match tally with Some t -> t | None -> tally_create ());
      st = Closed;
      consecutive = 0;
      opened_at = 0.0;
      probe_inflight = false;
      trips = 0;
      probes = 0;
      reopens = 0;
    }

  (* Open -> Half_open is a function of the clock, not of an event:
     resolve it lazily so every observer agrees on the state at [now]. *)
  let tick t ~now =
    match t.st with
    | Open when now >= t.opened_at +. t.cooldown ->
      t.st <- Half_open;
      t.probe_inflight <- false
    | Open | Closed | Half_open -> ()

  let state t ~now =
    tick t ~now;
    t.st

  let trip t ~now ~reopen =
    t.st <- Open;
    t.opened_at <- now;
    t.consecutive <- 0;
    t.probe_inflight <- false;
    if reopen then begin
      t.reopens <- t.reopens + 1;
      t.tally.breaker_reopens <- t.tally.breaker_reopens + 1
    end
    else begin
      t.trips <- t.trips + 1;
      t.tally.breaker_trips <- t.tally.breaker_trips + 1
    end

  let record_failure t ~now =
    tick t ~now;
    match t.st with
    | Closed ->
      t.consecutive <- t.consecutive + 1;
      if t.consecutive >= t.threshold then trip t ~now ~reopen:false
    | Half_open ->
      (* OVLD010: the probe found the device still failing. *)
      trip t ~now ~reopen:true
    | Open -> ()

  let record_success t ~now =
    tick t ~now;
    match t.st with
    | Closed -> t.consecutive <- 0
    | Half_open ->
      t.st <- Closed;
      t.consecutive <- 0;
      t.probe_inflight <- false
    | Open -> ()

  (* Admission-side gate: Closed admits, Open sheds, Half_open admits a
     single probe at a time. *)
  let allow t ~now =
    tick t ~now;
    match t.st with
    | Closed -> true
    | Open -> false
    | Half_open ->
      if t.probe_inflight then false
      else begin
        t.probe_inflight <- true;
        t.probes <- t.probes + 1;
        true
      end

  let consecutive_failures t = t.consecutive
  let trips t = t.trips
  let probes t = t.probes
  let reopens t = t.reopens
end

(* ------------------------------------------------------------------ *)
(* Deadlines                                                           *)
(* ------------------------------------------------------------------ *)

module Deadline = struct
  type t = { expires : float }

  let make ~now ~budget =
    if budget <= 0.0 then invalid_arg "Deadline.make: budget <= 0";
    { expires = now +. budget }

  let at expires = { expires }
  let expires t = t.expires
  let expired t ~now = now > t.expires
end

(* ------------------------------------------------------------------ *)
(* Admission control                                                   *)
(* ------------------------------------------------------------------ *)

module Admission = struct
  type mode = Normal | Read_only

  type t = {
    rate : float;
    burst : float;
    max_lag : float;
    mutable tokens : float;
    mutable refilled_at : float;
    mutable breakers : Breaker.t list;
    mutable mode : mode;
    adm_tally : tally;
  }

  (* The analytic class is shed while fewer than this fraction of
     [burst] tokens remain. *)
  let analytic_floor = 0.5

  let create ?(rate = 1000.0) ?(burst = 100.0) ?(max_lag = 0.25) ?tally () =
    if rate <= 0.0 then invalid_arg "Admission.create: rate <= 0";
    if burst < 1.0 then invalid_arg "Admission.create: burst < 1";
    if max_lag <= 0.0 then invalid_arg "Admission.create: max_lag <= 0";
    {
      rate;
      burst;
      max_lag;
      tokens = burst;
      refilled_at = 0.0;
      breakers = [];
      mode = Normal;
      adm_tally = (match tally with Some t -> t | None -> tally_create ());
    }

  let tally t = t.adm_tally
  let register_breaker t b = t.breakers <- b :: t.breakers
  let mode t = t.mode
  let set_mode t m = t.mode <- m

  let refill t ~now =
    if now > t.refilled_at then begin
      t.tokens <- Float.min t.burst (t.tokens +. ((now -. t.refilled_at) *. t.rate));
      t.refilled_at <- now
    end

  let breakers_clear t ~now =
    List.for_all (fun b -> Breaker.state b ~now = Breaker.Closed) t.breakers

  let reject t ~code ~site detail =
    note_code t.adm_tally code;
    shed ~code ~site detail

  let admit ?(lag = 0.0) t ~now ~priority =
    let site = "admission" in
    refill t ~now;
    (match t.mode with
    | Read_only ->
      reject t ~code:"OVLD009" ~site
        "degraded read-only service: writes rejected until replay completes"
    | Normal -> ());
    if priority = Analytic && not (breakers_clear t ~now) then
      reject t ~code:"OVLD007" ~site
        "circuit breaker open: analytic class shed while the device recovers";
    if lag > t.max_lag then
      reject t ~code:"OVLD002" ~site
        (Printf.sprintf "device backlog %.3fs exceeds %.3fs" lag t.max_lag);
    if priority = Analytic && t.tokens < analytic_floor *. t.burst then
      reject t ~code:"OVLD003" ~site
        (Printf.sprintf
           "analytic class needs %.0f%% token headroom (%.1f of %.0f left)"
           (100.0 *. analytic_floor) t.tokens t.burst);
    if t.tokens < 1.0 then
      reject t ~code:"OVLD001" ~site
        (Printf.sprintf "token bucket empty (%s arrival shed)"
           (priority_name priority));
    t.tokens <- t.tokens -. 1.0;
    t.adm_tally.admitted <- t.adm_tally.admitted + 1
end

(* ------------------------------------------------------------------ *)
(* Catalogue                                                           *)
(* ------------------------------------------------------------------ *)

let code_catalogue =
  [
    ("OVLD001", "admission: token bucket empty, arrival shed");
    ("OVLD002", "admission: device backlog or in-flight limit exceeded");
    ("OVLD003", "admission: analytic class shed to keep OLTP headroom");
    ("OVLD004", "deadline expired acquiring or waiting for a lock");
    ("OVLD006", "deadline expired at commit; transaction rolled back");
    ("OVLD007", "circuit breaker open: request shed while device recovers");
    ("OVLD008", "per-transaction retry budget exhausted");
    ("OVLD009", "degraded read-only service: write rejected during replay");
    ("OVLD010", "half-open probe failed: breaker reopened");
  ]
