(** Two-phase locking extended for pre-committed transactions
    (Section 5.2).

    "Associated with each lock are three sets of transactions: active
    transactions that currently hold the lock, transactions that are
    waiting to be granted the lock, and pre-committed transactions that
    have released the lock but have not yet committed.  When a transaction
    is granted a lock, it becomes dependent on the pre-committed
    transactions that formerly held the lock."

    Locks are exclusive (the banking workload updates records).  All locks
    are held until pre-commit, per the paper's assumption.

    Keys are record slots, [>= 0].  The three sets are kept by slot, in
    arrays that grow on demand to the largest key acquired (the
    record-resident lock state of Larson et al.); a key's waiter queue is
    made at its first wait.  Only active and pre-committed transactions
    are kept per transaction: {!finalize} and {!release_abort} drop the
    entry and set the id's bit in a bitset over the non-negative ids, so
    a finished id is still rejected by {!acquire}, {!precommit} and
    {!release_abort} at one bit, not one table entry, per transaction.
    Transaction ids are [>= 0]. *)

type t

type grant = {
  granted_txn : int;
  dependencies : int list;
      (** pre-committed transactions this grant makes the grantee depend
          on *)
}

val create :
  ?recorder:Schedule.recorder -> ?domain_of:(int -> int) -> unit -> t
(** [create ?recorder ?domain_of ()] — when [recorder] is given, every
    lock transition (acquire / grant / wait / wake / release / precommit)
    is appended to it as a {!Schedule.event} for offline auditing by
    {!Mmdb_verify.Schedule_check}.  Abort is the caller's to record
    ({!Txn.abort} does, before {!release_abort}), so an abort that skips
    the release still shows in the trace.  Without a recorder, recording
    allocates nothing.
    [domain_of txn] supplies the domain stamp for each event (default:
    everything on domain 0 — the historical single-domain behaviour). *)

val acquire :
  ?deadline:Mmdb_overload.Overload.Deadline.t -> t -> txn:int -> key:int ->
  grant option
(** [acquire lm ~txn ~key] tries to take the exclusive lock on [key].
    [Some grant] if granted now (with its dependency list); [None] if the
    transaction must wait (it is queued).  Re-acquiring a held lock
    returns an empty grant.  When [deadline] is given, the wait is
    bounded: {!expire_waiters} sweeps the registration once the deadline
    passes, so convoy deadlocks surface as typed OVLD004 timeouts
    instead of unbounded waits.  @raise Invalid_argument if [txn]
    already waits for some lock (no multi-wait in this model), or if
    [txn] has already pre-committed or finished — the paper's §5.2
    invariant: pre-commit releases every lock for good, so the lock set
    never grows again — or if [key] or [txn] is negative. *)

val expire_waiters : t -> now:float -> int list
(** Remove every waiter whose wait deadline passed by [now] from its
    queue and return their transaction ids (ascending).  The caller
    aborts each via {!release_abort} (and typically raises
    {!Mmdb_overload.Overload.Shed} OVLD004), so the timeout flows
    through the same audited abort path as any other abort. *)

val precommit : t -> txn:int -> grant list
(** Move [txn] from holder to pre-committed on every lock it holds,
    releasing them; returns the grants handed to woken waiters (each now
    dependent on the pre-committed chain).  @raise Invalid_argument if
    [txn] is queued for a lock, or has pre-committed or finished. *)

val release_abort : t -> txn:int -> grant list
(** Abort before pre-commit: release all locks and any wait registration;
    returns grants to woken waiters.  (Pre-committed transactions never
    abort — the paper's invariant — so calling this after {!precommit},
    or on a finished id, raises.) *)

val finalize : t -> txn:int -> unit
(** The transaction's commit record is durable: remove it from every
    pre-committed set.  Dependants already granted keep their recorded
    dependency lists (the commit-group machinery consults those).
    @raise Invalid_argument unless [txn] is pre-committed. *)

(** Inspection.  A key beyond the largest acquired has no holder, waiters
    or pre-committed set.  [locks_held] lists the keys [txn] was granted,
    oldest first, until it finishes (after {!precommit} these are the
    keys it released). *)

val holder : t -> key:int -> int option
val waiters : t -> key:int -> int list
val precommitted : t -> key:int -> int list
val locks_held : t -> txn:int -> int list
