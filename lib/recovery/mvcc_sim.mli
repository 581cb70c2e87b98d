(** Locking vs versioning under long readers — quantifying Section 6's
    conjecture that "a versioning mechanism [REED83] may provide superior
    performance for memory resident systems".

    The workload mixes short update transactions (instant execution,
    group-commit logging, as in {!Tps_sim}) with periodic {e long
    read-only} transactions that scan the whole account table:

    - Under {b two-phase locking}, a scanning reader holds a shared lock
      on the table for its whole duration, stalling every writer that
      arrives meanwhile (and is itself delayed behind in-flight writers).
    - Under {b versioning}, the reader picks a snapshot timestamp and
      reads version chains; writers are never delayed, and the reader's
      snapshot is verified consistent (zero-sum balances) even while
      writes proceed under it.

    A driver over {!Txn}, the transaction kernel: writers are one-shot
    {!Txn.run} transactions through the same group-commit WAL under both
    schemes, so the difference isolates the concurrency-control choice.
    The driver keeps the reader windows; under versioning it installs a
    version from each Update record the commit returns. *)

type scheme = Locking | Versioning

type result = {
  scheme_label : string;
  events : Schedule.event list;
      (** version-store accesses, domain-stamped (writers on domain 0,
          snapshot readers on domain 1, [ver] = version / snapshot
          timestamp); empty unless [record_schedule] was set *)
  writer_tps : float;
  writer_p99_latency : float;
  reader_count : int;
  snapshots_consistent : bool;
      (** every reader saw a zero-sum (transactionally consistent) state *)
  versions_peak : int;  (** space cost: 0 under locking *)
}

val run : ?seed:int -> ?nrecords:int -> ?n_writers:int ->
  ?record_schedule:bool -> scheme -> result
(** Defaults: 1000 accounts, 20,000 writers at saturation, a scanning
    reader every 2 simulated seconds holding its snapshot/lock for 1 s.
    [record_schedule] (default false) witnesses every version-store
    access in [events] for {!Mmdb_verify.Schedule_check} auditing.
    @raise Wal.Unresolved_ticket if a commit ticket is still pending
    after the final flush (a WAL-invariant violation).
    @raise Mmdb_fault.Fault.Io_error from the log device when a fault
    plan is armed. *)
