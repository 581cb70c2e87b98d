(** Open-loop overload experiment over the transactional service.

    Arrivals follow a Poisson process at the offered rate — they keep
    coming whether or not the service keeps up, which is the regime
    where an unprotected main-memory DBMS collapses: the log device
    (§5.2's bottleneck) queues every admitted commit, its backlog only
    grows, and soon {e every} transaction misses its deadline.  With the
    service layer armed (admission control, per-transaction deadlines,
    circuit breaker, degraded modes), excess offered load is shed with
    typed OVLD rejections and the admitted work still completes in
    time — graceful degradation instead of collapse. *)

type config = {
  seed : int;
  duration : float;  (** simulated seconds of arrivals *)
  spike_mult : float;  (** rate multiplier inside the [1, 2) s spike *)
  protected : bool;
      (** arm the admission controller and abort expired transactions in
          the service (OVLD004/6); when off, every arrival is admitted
          and deadlines exist only in the client's eyes — late commits
          still count against goodput, and nothing stops the backlog
          from snowballing (the collapse control) *)
  storm : bool;  (** arm the [storm] fault spec (transient log faults) *)
  record_schedule : bool;  (** audit the run with Schedule_check afterwards *)
}

val default_config : config
(** 3 s with a 10x spike, protected, no storm.  The rest of the
    workload is fixed: 512 accounts, 700 arrivals/s outside the spike,
    15% analytic, 50 ms deadlines, two updates of 250 us each per
    transaction, admission at 900/s with a 64-token burst and a 50 ms
    log-backlog bound, a per-transaction budget of 8 transient retries,
    group commit. *)

type bucket = {
  b_start : float;
  b_arrivals : int;
  b_goodput : int;  (** committed and durable within deadline *)
  b_shed : int;
  b_timed_out : int;
  b_late : int;  (** committed but durable past the deadline *)
  b_p99_latency : float;  (** of durable commits arriving in this bucket *)
}
(** One 100 ms slice of the run (the degradation curve). *)

type outcome = {
  arrivals : int;
  committed : int;
  goodput_txns : int;  (** commits durable within their deadline *)
  goodput_tps : float;
  shed : int;  (** typed admission rejections (OVLD001/2/3/7/9) *)
  timed_out : int;  (** typed deadline expiries (OVLD004/6) *)
  late : int;  (** committed but durable past the deadline *)
  io_failures : int;  (** Io_error escapes (retry rides exhausted) *)
  p50_latency : float;
  p99_latency : float;
  shed_codes : (string * int) list;  (** OVLD code histogram, sorted *)
  tally : Mmdb_overload.Overload.tally;
  breaker_trips : int;
  breaker_reopens : int;
  breaker_final : string;  (** "closed" / "open" / "half-open" at the end *)
  buckets : bucket list;
  money_conserved : bool;  (** balances still sum to zero *)
  audit_errors : int;
      (** Schedule_check errors over the recorded schedule; 0 when
          [record_schedule] was off (nothing to audit) *)
}

val run : config -> outcome
(** Drive one open-loop run and classify every arrival: goodput, late,
    shed (by OVLD code), timed out, or lost to I/O.
    @raise Invalid_argument on a non-positive duration. *)
