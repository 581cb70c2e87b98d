(** Crash-point torture harness.

    Sweeps the end-to-end recovery stack ({!Mmdb_recovery.Recovery_manager})
    across every schedulable crash instant — between transaction
    arrivals, just after each log-page write is issued, mid-page-write,
    and past quiesce — for each WAL commit strategy, with and without an
    armed fault plan (torn log tails, read/rest bit flips, transient I/O
    errors, snapshot rot, stable-memory battery droop).

    The property checked is {e no silent corruption}: every run must
    either satisfy all recovery invariants (recovered state equals the
    golden replay, money conserved, every acknowledged commit durable,
    durable log passes the protocol audit) or carry an explicit
    unrecoverable-fault report in its tally (battery droop losing
    acknowledged commits, at-rest media damage destroying committed log
    records).  An invariant violation with a quiet fault plane is a bug
    in the recovery stack and fails the sweep. *)

type verdict =
  | Clean  (** all invariants hold, no faults were even injected *)
  | Repaired  (** faults injected; detected/repaired; invariants hold *)
  | Flagged of string list
      (** invariants violated, but the loss was reported unrecoverable *)
  | Silent of string list
      (** invariants violated with no unrecoverable report — a bug *)

type failure = {
  f_strategy : string;
  f_spec : string;
  f_crash_at : float;
  f_crash_steps : int option;
      (** [Some n]: recovery itself was crashed after [n] replay steps
          and restarted before this verdict was taken *)
  f_violations : string list;
}

type combo = {
  cb_strategy : string;
  cb_spec : string;
  cb_runs : int;
  cb_clean : int;
  cb_repaired : int;
  cb_flagged : int;
  cb_silent : int;
}

type report = {
  combos : combo list;  (** one row per strategy x fault-spec pair *)
  total_runs : int;
  restart_runs : int;
      (** recoveries that were crashed mid-replay and restarted
          (FAULT012); a restart run whose crash budget outlasts the
          replay counts zero *)
  silent : failure list;  (** the sweep fails iff nonempty *)
  flagged : failure list;
  tally : Mmdb_fault.Fault.tally;  (** aggregated over all runs *)
  events : (string * int) list;  (** FAULT-code event counts, aggregated *)
}

val run :
  ?seed:int -> ?txns:int -> ?specs:string list ->
  ?strategies:Mmdb_recovery.Wal.strategy list -> ?max_points_per_combo:int ->
  unit -> report
(** [run ()] sweeps every strategy x spec pair.  [specs] defaults to
    ["none"], each single-fault spec and ["torn-tail,bitflip"];
    [strategies] to conventional, group commit, partitioned-2 and
    compressed stable memory (small capacity, so drains happen under
    torture).  Crash points are harvested from a crash-free probe run of
    the same configuration (its page-write spans and arrival times),
    capped at [max_points_per_combo] (default 32) per pair.
    Deterministic in [seed] (default 7): workload, fault schedule, and
    crash points are all derived from it.

    Every run replays on four partitions with adaptive logging under the
    simulated scheduler: the hardest deterministic replay configuration,
    so every harvested crash point also exercises cross-partition
    commands split by partition and the value-vs-command logging
    decision.  On top of the plain sweep, 3 crash points spread across
    each combo's range are re-run with the {e recovery itself} crashed
    after 1, 8 and 64 replay/write-back steps and restarted — the
    restart-crash matrix.  Those runs obey the same no-silent-corruption
    property and are counted in [report.restart_runs].

    @raise Invalid_argument if [txns] or [max_points_per_combo] is below
    1 (a sweep over no transactions or no crash points proves nothing),
    or a spec in [specs] does not parse. *)

val ok : report -> bool
(** No silent-corruption failures. *)

val pp : Format.formatter -> report -> unit
(** Per-combo table, aggregate tally, FAULT-event counts, and any silent
    failures. *)
