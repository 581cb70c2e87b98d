(** Happens-before race detector over recorded transaction schedules —
    the dynamic half of the domain-safety gate in front of the multicore
    engine (ROADMAP item 1).

    A {!Mmdb_recovery.Schedule} trace stamped with domains (see
    [Schedule.event.domain]) is replayed through a FastTrack-style
    vector-clock analysis: events of one domain are program-ordered by
    trace position, and cross-domain order exists only through lock
    edges — a [Release] of key [k] happens-before every later
    [Grant]/[Wake] of [k].  Unordered conflicting accesses to one key
    are data races.  An Eraser-style lockset refinement runs alongside
    as a fallback: a key touched by two or more domains whose candidate
    lockset (the intersection of every accessor's held locks) is empty
    is unguarded even if the vector clocks happened to order the
    particular interleaving recorded.

    Multiversion accesses ([Schedule.event.ver] set) are judged by
    version discipline instead of locks: the timestamp allocator is the
    synchronisation point, so a version installed {e before} a snapshot
    began is exactly what the snapshot is supposed to read.  A write
    races only when it installs a version at-or-below a snapshot that is
    {e still active} — between the snapshot's first and last recorded
    read — where the scan may observe state from both sides of the
    install.  A clean MVCC trace therefore audits race-free without any
    lock events.

    Codes (stable):
    - [RACE001] write/write race — concurrent unordered writes to a key
    - [RACE002] read/write race — unordered read and write of a key
    - [RACE003] unguarded shared access — empty candidate lockset across
      ≥ 2 domains (Eraser)
    - [RACE004] lock protocol break — release without a matching acquire
    - [RACE005] snapshot race — version installed at-or-below a
      concurrent active snapshot

    Single-domain traces (every event on domain 0, the historical
    emitters) are totally ordered and audit clean by construction. *)

val audit : Mmdb_recovery.Schedule.event list -> Mmdb_util.Diag.t list
(** Replay the trace and report every race, deduplicated per (code,
    key).  All findings are error severity. *)

val code_catalogue : (string * string) list
(** The [RACE0xx] dynamic-detector codes with one-line descriptions
    (the [RACE1xx] static-lint codes live in {!Lint}). *)
