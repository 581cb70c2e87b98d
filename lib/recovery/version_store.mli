(** Multiversion record store — Section 6's closing suggestion: "While
    locking is generally accepted to be the algorithm of choice for disk
    resident databases, a versioning mechanism [REED83] may provide
    superior performance for memory resident systems."

    Each slot keeps a timestamp-ordered version chain; writers install new
    versions at their commit timestamp, and a reader with snapshot
    timestamp [ts] sees, for every slot, the newest version with
    [commit_ts <= ts] — a consistent snapshot with no locks taken.  Old
    versions are pruned up to the oldest active snapshot. *)

type t

val create : ?recorder:Schedule.recorder -> nrecords:int -> unit -> t
(** All slots start at an initial version (timestamp −∞, value 0).  With
    [recorder], accesses carrying [~txn] are witnessed as version-stamped
    ([ver = ts]) Read/Write schedule events, so multiversion schedules
    are auditable by {!Mmdb_verify.Schedule_check}'s version
    discipline. *)

val write :
  ?txn:int -> ?domain:int -> t -> ts:float -> slot:int -> value:int -> unit
(** Install a version.  When [txn] is given the install is witnessed as a
    [Write] event with [ver = ts], stamped with [domain] (default 0).
    @raise Invalid_argument if [ts] is not newer than the slot's latest
    version (writers are serialized by the lock manager) or the slot is
    out of range. *)

val read : ?txn:int -> ?domain:int -> t -> ts:float -> slot:int -> int
(** Snapshot read: the newest value with [commit_ts <= ts].  When [txn]
    is given the access is witnessed as a [Read] event with [ver = ts]. *)

val version_count : t -> int
(** Total stored versions across all slots (space cost of versioning). *)

val gc : t -> oldest_active_ts:float -> int
(** Drop versions superseded before [oldest_active_ts]; keeps, per slot,
    the newest version at-or-before that timestamp plus everything newer.
    Returns the number of versions reclaimed. *)
