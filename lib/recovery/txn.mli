(** The transaction kernel: the one place a transaction happens
    (Section 5).

    A transaction takes exclusive locks ({!lock}), applies its updates to
    the memory-resident store ({!write}), and ends in {!commit} or
    {!abort}.  Commit logs Begin, the body (value records, or one
    [Command] record), and Commit; pre-commits, handing its locks to
    dependants; and submits the records to the WAL with the pre-commit
    dependencies gathered from its grants.  Abort compensates the body in
    memory newest first, logging each compensation, releases the locks,
    and logs Abort.  Either way a transaction's records form one run of
    consecutive LSNs with Begin first and Commit/Abort last, which is
    what {!crash}'s demotion rule relies on: callers must not
    interleave one transaction's writes and end with another's.

    Retirement: after every commit, and whenever a driver calls
    {!retire}, each commit ticket durable by then is finalized in the
    lock manager and witnessed as a [Commit_durable] event stamped with
    its exact completion time, newest submission first.  A retire touches
    only the tickets resolved since the last one and the due ones.

    Restart: {!checkpoint} keeps the fuzzy-checkpoint bracket, {!crash}
    fixes the surviving log at one instant and {!recover} replays it;
    {!Recovery_manager} and [Txn_db] both run these three.  Drivers keep
    the rest: arrivals, admission, deadlines, reader windows, when to
    checkpoint or crash, and audits. *)

type t

val create :
  ?recorder:Schedule.recorder ->
  ?domain_of:(int -> int) ->
  ?faults:Mmdb_fault.Fault_plan.t ->
  ?records_per_page:int ->
  nrecords:int ->
  wal:Wal.t ->
  unit ->
  t
(** A kernel over [wal] and a fresh {!Kv_store} of [nrecords] zero
    balances ([records_per_page] default 20, with 1 MiB of stable memory
    for its dirty-page table).  [recorder] witnesses every lock-manager
    transition, every transactional read and write, and every
    [Commit_durable]; [domain_of txn] (default 0) stamps each event's
    domain.  [faults] arms the store's snapshot pages; the WAL carries
    its own plan. *)

val kv : t -> Kv_store.t
(** The store, for reads, checkpoints and recovery. *)

val locks : t -> Lock_manager.t
(** The lock table, for inspection and {!Lock_manager.expire_waiters}
    sweeps.  Protocol transitions go through this module. *)

val unretired : t -> int
(** Commit tickets not yet retired: the in-flight count admission
    control reads. *)

val lock :
  ?deadline:Mmdb_overload.Overload.Deadline.t -> t -> txn:int -> key:int ->
  bool
(** Take [key]'s exclusive lock for [txn]: [true] when granted now (its
    pre-commit dependencies are recorded for {!commit}), [false] when
    [txn] is queued.  A queued transaction's grant arrives later, in the
    [woken] list of the {!commit} or {!abort} that freed the lock.
    [deadline] bounds the wait ({!Lock_manager.expire_waiters}).
    @raise Invalid_argument if [txn] already waits or has ended. *)

val write : t -> txn:int -> slot:int -> delta:int -> unit
(** Add [delta] to [slot] in memory and log the Update.  The first write
    also draws the transaction's Begin LSN.
    @raise Invalid_argument on a bad slot or after {!crash}. *)

type outcome = {
  ticket : Wal.ticket;
  records : Log_record.t list;  (** what was logged, Begin first *)
  woken : int list;
      (** queued transactions granted a lock this one released *)
}

val commit : t -> txn:int -> at:float -> outcome
(** Log Begin, the body and Commit; pre-commit; submit to the WAL at
    [at]; then retire every ticket durable by [at].
    @raise Mmdb_fault.Fault.Io_error from the log device when a fault
    plan is armed.
    @raise Mmdb_overload.Overload.Shed (OVLD008) when a per-transaction
    retry budget runs dry.
    @raise Invalid_argument if [txn] is queued or has ended. *)

val abort : t -> txn:int -> at:float -> outcome
(** Undo every write in memory newest first, logging a compensating
    Update for each; record the [Abort] schedule event and release the
    locks (and any wait); log Abort at [at].  A transaction that never wrote logs just Begin and Abort.
    @raise Mmdb_fault.Fault.Io_error as {!commit}.
    @raise Mmdb_overload.Overload.Shed as {!commit}.
    @raise Invalid_argument if [txn] has pre-committed or ended. *)

val run :
  ?command:bool -> t -> txn:int -> at:float -> (int * int) list -> outcome
(** One-shot transaction: lock every slot, apply the [(slot, delta)]
    updates in order, commit at [at].  [command] (default false) logs
    the body as one [Command] record, whose operations share one LSN.
    @raise Invalid_argument if a lock is not free (one-shot drivers run
    transactions serially), or on a bad slot.
    @raise Mmdb_fault.Fault.Io_error as {!commit}.
    @raise Mmdb_overload.Overload.Shed as {!commit}. *)

val retire : t -> at:float -> unit
(** Finalize every commit durable by [at], emitting its
    [Commit_durable] at the ticket's completion time. *)

type checkpoint = {
  sweep : Kv_store.checkpoint_stats;
  log_durable : float;  (** when the flushed log was durable *)
}

val checkpoint : t -> at:float -> deadline:float option -> checkpoint
(** Fuzzy checkpoint (Section 5.3) at [at]: log [Ckpt_begin] unless a
    bracket is open, flush the log and wait out its device queues (WAL
    rule), sweep dirty pages, and once none is left log [Ckpt_end] at
    [at].  No page write completes after [deadline] (a crash instant);
    a cut-short sweep leaves the bracket for the next call to resume.
    @raise Mmdb_fault.Fault.Io_error when a fault plan is armed. *)

val crash : t -> at:float -> Log_record.t list
(** Crash at [at]: fix the surviving log at [at] ({!Wal.crash}, which
    applies an armed fault plan's damage), demote every transaction whose
    surviving records are not one complete LSN run to a loser (its Commit
    or Abort is dropped and FAULT008 is noted on the WAL's fault plan),
    then lose the store's memory, the lock table, open transactions and
    unretired tickets.  Media damage can leave a commit record standing
    while some of its updates are gone; redoing it would replay half a
    transaction.  Returns that log and keeps it for {!recover}.  The log
    writes the crash lost stay lost. *)

val recover :
  t -> workers:int -> use_domains:bool -> crash_steps:int option ->
  recorder:Schedule.recorder option -> Kv_store.recover_stats * int
(** {!Kv_store.recover} over the log the last {!crash} kept, with
    [workers] partitions (on domains when [use_domains]) and [recorder]
    capturing the replay.  [crash_steps] crashes the restart after that
    many steps; FAULT012 is noted and recovery runs again.  Returns the
    stats and the attempts (1 or 2).
    @raise Invalid_argument before the first {!crash}.
    @raise Mmdb_fault.Fault.Io_error when a fault plan is armed. *)

val surviving_log : t -> at:float -> Log_record.t list
(** What recovery would replay after a crash at [at] if the crash did no
    damage: {!Wal.durable_records}, with every transaction whose durable
    records are not one complete LSN run demoted to a loser (its Commit
    or Abort is dropped).  A read-only view: it draws nothing from the
    fault plan and notes nothing; an armed plan's damage is decided by
    {!crash}. *)
