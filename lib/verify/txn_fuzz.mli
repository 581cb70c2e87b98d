(** Seeded interleaved-workload fuzzer for the transaction sanitizer.

    A driver over {!Mmdb_recovery.Txn}, the transaction kernel, with
    concurrent banking transactions: staged lock acquisition (so
    transactions genuinely wait on each other), random aborts with
    in-memory rollback, deadlock victims, optional crashes
    mid-schedule.  The driver keeps the interleaving scheduler, the
    domain placement and the race injections; the kernel's recorder
    witnesses everything (lock transitions, and reads and writes through
    the store), and {!Schedule_check.audit} runs over the result.

    Determinism: all randomness comes from {!Mmdb_util.Xorshift} seeded
    with [seed]; the same parameters always produce the same schedule,
    log, and diagnostics.

    By default each transaction acquires its keys in sorted order, so the
    run is deadlock-free and a clean build must produce {e zero}
    error-severity diagnostics (CI gates on this).  With
    [~scramble:true] acquisition order is shuffled per transaction:
    deadlocks become possible, are resolved by aborting a victim, and the
    waits-for analyzer must report each one as TXN006 (plus TXN101
    lock-order warnings). *)

type inject = [ `Ww | `Rw | `Unguarded | `Release_no_acquire | `Snapshot ]
(** Seeded positive controls: each injects one specific race into the
    recorded trace via ghost transactions on private domains and keys,
    mapping to exactly one expected code — [`Ww] → RACE001, [`Rw] →
    RACE002, [`Unguarded] → RACE003 (lockset fallback only),
    [`Release_no_acquire] → RACE004, [`Snapshot] → RACE005. *)

type outcome = {
  events : Mmdb_recovery.Schedule.event list;  (** the recorded trace *)
  log : Mmdb_recovery.Log_record.t list;
      (** every record submitted to the WAL, in order *)
  diags : Mmdb_util.Diag.t list;  (** [Schedule_check.audit ~log events] *)
  injected : string list;
      (** expected RACE codes, one per injection, in injection order *)
  committed : int;  (** transactions that pre-committed *)
  aborted : int;  (** voluntary aborts plus deadlock victims *)
  waits : int;  (** lock requests that had to queue *)
  deadlocks : int;
      (** victims killed because every in-flight transaction was queued
          (may exceed distinct TXN006 cycles: a kill outside the cycle
          forces another round) *)
  crashed : bool;  (** the run stopped mid-schedule without a flush *)
  ovld_codes : (string * int) list;
      (** OVLD shed/timeout histogram from spike mode ([[]] without
          [~spike]): OVLD001 arrivals shed by the starved token bucket,
          OVLD004 waiters aborted when their lock-wait deadline passed *)
}

val run :
  ?txns:int ->
  ?accounts:int ->
  ?scramble:bool ->
  ?crash:bool ->
  ?domains:int ->
  ?spike:bool ->
  ?inject:inject list ->
  seed:int ->
  unit ->
  outcome
(** [run ~seed ()] executes one fuzzed workload.  Defaults: [txns] = 40
    transfer transactions of 2–4 accounts each over [accounts] = 16 accounts
    (small on purpose — contention is the point), up to 4 transactions
    interleaved, 15 percent voluntary aborts, [scramble] = false (sorted,
    deadlock-free acquisition), [crash] = false.  With [crash:true] the driver
    stops roughly two-thirds through without flushing the log: the trace is
    truncated (in-flight transactions never finish) and the analyzers must
    still accept it.

    [spike] (default false) models an overload spike: arrivals pass a
    deliberately starved token bucket (sheds land in [ovld_codes] as
    OVLD001) and every admitted transaction carries a short lock-wait
    deadline — {!Mmdb_recovery.Lock_manager.expire_waiters} sweeps
    expired waiters each tick and the driver aborts them through the
    audited Begin/Abort path (OVLD004).  A clean run must still produce
    zero error diagnostics: shed arrivals never touch the lock manager,
    and timed-out waiters leave no locks and no balance changes.

    [domains] (default 1) assigns transaction [id] to simulated domain
    [id mod domains]; with [domains > 1] the trace is a genuine
    multi-domain interleaving whose only cross-domain ordering comes
    from lock edges, so a clean 2PL run must produce zero race
    diagnostics.  [inject] appends seeded positive-control races (see
    {!inject}); [injected] lists the RACE codes [diags] is expected to
    hold.  Injected ghost accesses are deliberately lock-free, so the
    unversioned ones also surface as TXN002 — race gates select the
    RACE codes from [diags]. *)
