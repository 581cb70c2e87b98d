(** Two-phase locking extended for pre-committed transactions
    (Section 5.2).

    "Associated with each lock are three sets of transactions: active
    transactions that currently hold the lock, transactions that are
    waiting to be granted the lock, and pre-committed transactions that
    have released the lock but have not yet committed.  When a transaction
    is granted a lock, it becomes dependent on the pre-committed
    transactions that formerly held the lock."

    Locks are exclusive (the banking workload updates records).  All locks
    are held until pre-commit, per the paper's assumption. *)

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
    protocol transition (acquire / grant / wait / wake / release /
    precommit / abort) is appended to it as a {!Schedule.event} for
    offline auditing by {!Mmdb_verify.Schedule_check}.  Without it,
    recording costs nothing.
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
    never grows again. *)

val expire_waiters : t -> now:float -> int list
(** Remove every waiter whose wait deadline passed by [now] from its
    queue and return their transaction ids (ascending).  The caller
    aborts each via {!release_abort} (and typically raises
    {!Mmdb_overload.Overload.Shed} OVLD004), so the timeout flows
    through the same audited abort path as any other abort. *)

val precommit : t -> txn:int -> grant list
(** Move [txn] from holder to pre-committed on every lock it holds,
    releasing them; returns the grants handed to woken waiters (each now
    dependent on the pre-committed chain). *)

val release_abort : t -> txn:int -> grant list
(** Abort before pre-commit: release all locks and any wait registration;
    returns grants to woken waiters.  (Pre-committed transactions never
    abort — the paper's invariant — so calling this after {!precommit}
    raises.) *)

val finalize : t -> txn:int -> unit
(** The transaction's commit record is durable: remove it from every
    pre-committed set.  Dependants already granted keep their recorded
    dependency lists (the commit-group machinery consults those). *)

val holder : t -> key:int -> int option
val waiters : t -> key:int -> int list
val precommitted : t -> key:int -> int list
val locks_held : t -> txn:int -> int list
