(** Overload-resilient service layer: typed load shedding, one retry
    curve for every backoff loop, per-device circuit breakers, deadline
    propagation, and token-bucket admission control.

    Everything here runs on the simulated clock: callers pass [~now]
    explicitly, so the module depends on no other library and stays
    deterministic under seeded workloads.  Rejections are typed — a
    {!Shed} carries an OVLD code from {!code_catalogue} — so harnesses
    can assert exactly why a transaction was turned away; the codes are
    documented in the generated CODES.md. *)

type reason = { code : string; site : string; detail : string }
(** Why a request was turned away: an OVLD code from {!code_catalogue},
    the site that shed it, and a human-readable detail. *)

exception Shed of reason
(** The one rejection exception of the service layer: admission sheds,
    deadline expiries, breaker-open sheds, and retry-budget exhaustion
    all raise it (distinguished by [reason.code]). *)

val shed : code:string -> site:string -> string -> 'a
(** [shed ~code ~site detail] raises {!Shed}.
    @raise Shed always. *)

type priority = Oltp | Analytic
(** Admission classes: OLTP keeps priority over analytics — under token
    pressure or an open breaker the analytic class sheds first. *)

(** {1 Shared tally}

    One mutable record accumulates the run's overload story: share it
    between an {!Admission} and its breakers (their [~tally] argument)
    so every shed and timeout of a run lands in one place. *)

type tally = {
  mutable admitted : int;
  mutable shed_bucket : int;  (** OVLD001 *)
  mutable shed_backlog : int;  (** OVLD002 *)
  mutable shed_analytic : int;  (** OVLD003 *)
  mutable lock_timeouts : int;  (** OVLD004 *)
  mutable commit_timeouts : int;  (** OVLD006 *)
  mutable shed_breaker : int;  (** OVLD007 *)
  mutable budget_exhausted : int;  (** OVLD008 *)
  mutable shed_readonly : int;  (** OVLD009 *)
  mutable breaker_trips : int;
  mutable breaker_reopens : int;  (** OVLD010 *)
}

val tally_create : unit -> tally

val note_code : tally -> string -> unit
(** Bump the tally row for an OVLD code (unknown codes are ignored). *)

(** {1 Retry} *)

module Retry : sig
  (** The device retry curve: wait [attempt * 1 ms] before retry
      [attempt], at most 3 retries — exactly
      {!Mmdb_fault.Fault_plan.retry_backoff}'s values, which
      deterministic torture expectations depend on.  The disk and the
      log devices both ride transient faults through {!ride}, so a
      per-transaction {!budget} can be shared across devices. *)

  val max_attempts : int

  val backoff : attempt:int -> float
  (** Wait before retry [attempt] (1-based).
      @raise Invalid_argument if [attempt <= 0]. *)

  type budget
  (** A per-transaction retry allowance, drained one unit per retry by
      every device sharing it. *)

  val budget : int -> budget

  val ride :
    ?budget:budget ->
    site:string ->
    failures:int ->
    attempt:(attempt:int -> backoff:float -> unit) ->
    exhausted:(retries:int -> unit) ->
    unit ->
    unit
  (** Ride out a transient fault that fails [failures] consecutive
      attempts: calls [attempt] once per failed try with its backoff
      (the caller charges the device, notes the retry, and waits on its
      own clock).  When [failures] exceeds {!max_attempts},
      [exhausted] is called instead and must raise the caller's typed
      error.
      @raise Shed OVLD008 when the shared [budget] runs dry mid-ride. *)
end

(** {1 Circuit breaker} *)

module Breaker : sig
  (** Per-device circuit breaker: trips open after 5 consecutive device
      errors, cools down for 50 ms on the simulated clock, then admits a
      single half-open probe whose outcome closes or reopens it. *)

  type state = Closed | Open | Half_open

  val state_name : state -> string

  type t

  val create : ?tally:tally -> unit -> t
  (** A closed breaker.  [tally] shares trip/reopen counts with an
      external record. *)

  val state : t -> now:float -> state
  (** Current state at [now] (resolves the open-to-half-open cooldown
      transition lazily, so every observer agrees). *)

  val record_failure : t -> now:float -> unit
  (** A device error at [now]: counts toward the trip threshold; in
      half-open state it reopens the breaker (OVLD010). *)

  val record_success : t -> now:float -> unit
  (** A clean device operation at [now]: resets the failure streak; a
      successful half-open probe closes the breaker. *)

  val allow : t -> now:float -> bool
  (** Admission-side gate: closed admits, open sheds, half-open admits
      one probe at a time. *)

  val consecutive_failures : t -> int
  val trips : t -> int
  val probes : t -> int
  val reopens : t -> int
end

(** {1 Deadlines} *)

module Deadline : sig
  (** A per-transaction time budget on the simulated clock, checked at
      lock acquisition, operator batch boundaries, and commit. *)

  type t

  val make : now:float -> budget:float -> t
  (** @raise Invalid_argument if [budget <= 0]. *)

  val at : float -> t
  (** A deadline at an absolute instant. *)

  val expires : t -> float
  val expired : t -> now:float -> bool
end

(** {1 Admission control} *)

module Admission : sig
  (** Token-bucket admission with a backlog limiter, priority classes, breaker awareness, and a degraded-mode governor.  All
      sheds are typed and land in the shared {!tally}. *)

  type mode =
    | Normal
    | Read_only
        (** during recovery replay: reads served stale, writes shed
            (OVLD009) *)

  type t

  val create :
    ?rate:float ->
    ?burst:float ->
    ?max_lag:float ->
    ?tally:tally ->
    unit ->
    t
  (** [rate] tokens/s refill up to [burst]; arrivals shed when the
      bucket is empty (OVLD001), when the device backlog exceeds
      [max_lag] seconds (OVLD002), and — for the analytic class — when
      fewer than half of [burst] tokens remain (OVLD003).
      @raise Invalid_argument on non-positive limits. *)

  val tally : t -> tally
  val register_breaker : t -> Breaker.t -> unit
  (** While any registered breaker is not closed, the analytic class is
      shed (OVLD007) — the shed-analytics degraded mode. *)

  val mode : t -> mode
  val set_mode : t -> mode -> unit

  val admit : ?lag:float -> t -> now:float -> priority:priority -> unit
  (** Admit one write arrival at [now] or shed it.  [lag] is the caller's
      measure of device backlog (seconds of unflushed work).
      @raise Shed with the OVLD code of the first limit hit. *)
end

val code_catalogue : (string * string) list
(** OVLD code catalogue; part of [Mmdb_verify.code_catalogue], which
    CODES.md is generated from. *)
