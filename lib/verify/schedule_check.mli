(** Schedule auditor: one offline pass over a recorded
    {!Mmdb_recovery.Schedule} trace.

    Section 5.2 of the paper rests its whole recovery argument on a
    locking protocol with pre-committed transactions: strict two-phase
    locking until pre-commit, pre-committed transactions never abort or
    re-acquire, and a transaction's commit record must not become durable
    before the commit records of the pre-committed transactions it
    depends on.  The multicore engine adds a second obligation: every
    pair of conflicting accesses from two domains must be ordered by a
    lock edge.  [audit] checks both from one walk over the events, in
    the spirit of classic serializability theory (Eswaran et al.),
    ARIES-style protocol validation and FastTrack/Eraser race detection.

    {b Protocol codes} (paths ["txn=7 key=3"], ["txn=7 dep=4"], ["txn=7"],
    ["cycle=1->2"] or ["keys=3,5"]):
    - [TXN001] — lock granted after the transaction's first release
      (two-phase-locking growing-phase violation)
    - [TXN002] — read or write of a key without holding its lock
    - [TXN003] — lock still held after pre-commit or abort (both must
      release every lock)
    - [TXN004] — pre-committed transaction acquired a lock
    - [TXN005] — pre-committed transaction aborted
    - [TXN006] — deadlock: cycle in the waits-for graph (reported with
      the cycle as witness)
    - [TXN007] — conflict-serializability violation: cycle in the
      precedence graph over committed transactions (reported with a
      witness edge list)
    - [TXN008] — pre-commit dependency violation: a commit became
      durable before a recorded dependency's commit, the dependency's
      commit record is missing from / out of order in the log, or the
      dependency aborted
    - [TXN101] (warning) — transactions acquire the same pair of keys in
      opposite orders (lock-order lint: a latent deadlock)

    {b Race codes} (path ["key=7 dom=2"], each reported once per key).
    Events of one domain ([Schedule.event.domain]) are program-ordered
    by trace position; cross-domain order exists only through lock
    edges — a [Release] of key [k] happens-before every later
    [Grant]/[Wake] of [k].  Unordered conflicting accesses to one key are
    races (vector clocks); a key touched by two or more domains whose
    candidate lockset (the intersection of every accessor's held locks)
    is empty is unguarded even if the recorded interleaving happened to
    be ordered (Eraser):
    - [RACE001] write/write race — concurrent unordered writes to a key
    - [RACE002] read/write race — unordered read and write of a key
    - [RACE003] unguarded shared access — empty candidate lockset across
      ≥ 2 domains
    - [RACE004] lock protocol break — release without a matching acquire
    - [RACE005] snapshot race — version installed at-or-below a
      concurrent active snapshot
    Single-domain traces are totally ordered and raise only [RACE004].

    {b Versioned accesses are outside the lock protocol.}  A [Read] or
    [Write] with [ver = Some _] is a multiversion access: the timestamp
    allocator, not a lock, is its synchronisation point, so a version
    installed {e before} a snapshot began is exactly what the snapshot
    is supposed to read.  Such accesses are judged by version discipline
    alone — a write races only when it installs a version at-or-below a
    snapshot that is {e still active} (between the snapshot's first and
    last recorded read), RACE005 — and never raise TXN002, enter the
    TXN007 precedence graph, RACE002 or RACE003.  Versioned writes still
    take part in RACE001.  A clean MVCC trace therefore audits clean
    without any lock events.

    {b Replay traces take only the race codes.}  Parallel replay holds
    one latch per operation: it emits Grant/Write/Release per op under
    the original transaction's id, which two-phase locking reads as
    TXN001.  Audit those traces and select the [RACE] codes.

    {b Where the two analyses define a set differently, both stay.}  A
    key granted after pre-commit raises TXN004 and is then left out of
    the transaction's 2PL holdings (one bug does not cascade into
    TXN003), but it is still a lock the transaction holds for the
    race lockset and for RACE004. *)

val audit :
  ?log:Mmdb_recovery.Log_record.t list ->
  Mmdb_recovery.Schedule.event list -> Mmdb_util.Diag.t list
(** Every finding above: the protocol codes, then the race codes.
    Transactions still active (not yet pre-committed) at the end of a
    trace are tolerated — traces may be truncated by a crash.  TXN008
    checks that a dependency's commit became durable no later than its
    dependant's when both times are recorded, and against [log]
    (submission order) that the dependency neither aborted nor had its
    commit record submitted after the dependant's; omitting [log] (or
    passing [[]]) skips the log cross-checks.  TXN007's precedence graph
    holds only committed transactions (pre-committed, never aborted):
    aborted transactions' effects are rolled back. *)

val ok :
  ?log:Mmdb_recovery.Log_record.t list ->
  Mmdb_recovery.Schedule.event list -> bool
(** No error-severity findings (TXN101 warnings allowed). *)

val code_catalogue : (string * string) list
(** [(code, one-line description)] for every code above. *)
