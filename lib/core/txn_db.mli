(** Transactional service: a driver over {!Mmdb_recovery.Txn}, the
    transaction kernel.  It runs a memory-resident account store one
    transaction at a time, with a pluggable commit strategy, fuzzy
    checkpoints, crash and recovery.  The kernel does the locking,
    applying, logging, commit, abort, retirement and recovery log; this
    facade keeps admission control, deadlines, the per-transaction retry
    budget and degraded read-only mode. *)

type t

val create : ?strategy:Mmdb_recovery.Wal.strategy -> ?nrecords:int ->
  ?record_schedule:bool ->
  ?admission:Mmdb_overload.Overload.Admission.t -> ?work_per_update:float ->
  ?faults:Mmdb_fault.Fault_plan.t -> ?breaker:Mmdb_overload.Overload.Breaker.t ->
  ?retry_budget:int -> unit -> t
(** Defaults: group commit, 1000 accounts (20 per page, 1 MiB of stable
    memory for the dirty-page table), schedule recording off.  With
    [record_schedule:true] every
    lock-manager and transaction event is captured as a
    {!Mmdb_recovery.Schedule.event} (see {!schedule}) so
    {!Mmdb_verify.Txn_check} can audit the run.

    Overload extensions: [admission] gates {!transact} (token bucket,
    backlog, priority classes — {!Mmdb_overload.Overload.Admission});
    [work_per_update] (default 0, preserving historical timing) advances
    the simulated clock per applied update so deadlines can expire
    mid-transaction; [faults] arms the WAL's log devices with an
    injection plan; [breaker] attaches a circuit breaker to those
    devices (and registers it with [admission], enabling the
    shed-analytics degraded mode); [retry_budget] caps transient I/O
    retries {e per transaction} across all devices sharing the plan.
    @raise Invalid_argument if [work_per_update] or [retry_budget] is
    negative. *)

val nrecords : t -> int

val balance : t -> int -> int
(** Current in-memory balance.
    @raise Invalid_argument after a crash (recover first). *)

val balance_stale : t -> int -> int
(** Degraded read-only service: the slot's value in the last checkpoint
    image.  Unlike {!balance} this stays answerable while crashed
    (the snapshot survives on the simulated disk) — stale as of the last
    completed checkpoint sweep.  @raise Invalid_argument on bad slot. *)

val now : t -> float
(** Current simulated time. *)

val advance : t -> float -> unit
(** Move simulated time forward (models think time between
    transactions). *)

val overload_tally : t -> Mmdb_overload.Overload.tally
(** Shed/timeout/breaker tallies for this service (shared with the
    admission controller's tally when one was supplied). *)

val admission : t -> Mmdb_overload.Overload.Admission.t option
(** The admission controller supplied at {!create}, if any. *)

val completion : t -> txn:int -> float option
(** Durability time of [txn]'s commit, once its group-commit ticket
    resolved ([None] while still buffered or for unknown ids) — the
    latency oracle for the overload bench. *)

type commit_outcome = {
  txn_id : int;
  submitted_at : float;
  durable_at : float option;
      (** [None] while the commit record waits in a group-commit buffer *)
}

val transact :
  ?priority:Mmdb_overload.Overload.priority ->
  ?deadline:Mmdb_overload.Overload.Deadline.t ->
  t -> (int * int) list -> commit_outcome
(** [transact db updates] runs one transaction applying [(slot, delta)]
    pairs at the current simulated time: admission check (when a
    controller is attached), locks, in-memory update, log append,
    pre-commit.  [priority] (default [Oltp]) selects the admission
    class; [deadline] bounds the transaction's time budget — checked
    before each lock acquisition (OVLD004) and at the commit point after
    the updates ran (OVLD006: rolled back in memory with compensation
    records, locks released, nothing committed).
    @raise Invalid_argument on bad slots, an empty update list, or a
    slot appearing twice in one update list (the re-acquire path would
    muddy pre-commit dependency accounting).
    @raise Mmdb_overload.Overload.Shed with the OVLD code naming the
    rejection: admission (OVLD001/002/003/007), deadline expiry
    (OVLD004/006), per-transaction retry-budget exhaustion (OVLD008),
    or a write during degraded read-only mode after {!crash} (OVLD009).
    Every shed leaves no locks held and no balances changed.
    @raise Mmdb_fault.Fault.Io_error from the log device when a fault
    plan is armed. *)

val transact_abort : t -> (int * int) list -> int
(** Run a transaction that aborts {e before} pre-commit (the paper's
    invariant: pre-committed transactions never abort): updates are
    applied then rolled back in memory, locks release immediately, and the
    log records end with an Abort.  Returns the transaction id. *)

val flush : t -> unit
(** Force the log out (resolves pending group commits) and advance the
    clock to durability. *)

val checkpoint : t -> Mmdb_recovery.Kv_store.checkpoint_stats
(** Fuzzy checkpoint: log [Ckpt_begin], flush the log (WAL rule), sweep
    dirty pages to the snapshot, log [Ckpt_end]. *)

val crash : t -> unit
(** Lose volatile state at the current instant (pending group-commit
    buffers and the lock table are lost; completed and scheduled log
    writes survive, as does stable memory).  With an admission controller
    attached the service enters degraded read-only mode: {!balance_stale}
    keeps answering from the checkpoint image and {!transact} sheds
    OVLD009 until {!recover} restores normal service. *)

val recover : t -> Mmdb_recovery.Kv_store.recover_stats
(** Rebuild memory from the snapshot and the log that survives the
    crash ({!Mmdb_recovery.Txn.surviving_log}: with a fault plan armed,
    damaged log pages are truncated and incomplete transactions
    demoted, FAULT008).
    @raise Invalid_argument unless crashed.
    @raise Mmdb_recovery.Kv_store.Crashed_during_recovery when the
    store's crash hook fires mid-replay (restart-crash testing).
    @raise Mmdb_recovery.Replay.Rendezvous_deadlock defensively if the
    parallel-replay barrier invariant is ever broken. *)

val committed_txns : t -> int list
(** Transaction ids whose commit records a crash now would let recovery
    redo ({!Mmdb_recovery.Txn.surviving_log}). *)

val schedule : t -> Mmdb_recovery.Schedule.event list
(** The recorded transaction schedule, in emission order (audit input for
    {!Mmdb_verify.Txn_check}); [[]] unless the database was created with
    [record_schedule:true].  [Commit_durable] events are stamped with the
    exact log-ticket completion time, so they can carry earlier
    timestamps than trace-order neighbours. *)

val log_records : t -> Mmdb_recovery.Log_record.t list
(** Everything submitted to the WAL so far, in order (audit input for
    {!Mmdb_verify.Log_check} and {!Mmdb_verify.Txn_check}). *)

val log_pages : t -> int
val log_disk_bytes : t -> int
