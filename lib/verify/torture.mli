(** Crash-point torture: one shrinking property over
    {!Mmdb_recovery.Recovery_manager.run}, on {!Audit.property}.

    Each case draws one point of the crash space and runs the end-to-end
    recovery stack through it:
    - a WAL commit strategy (conventional, group commit, partitioned-2,
      or compressed stable memory small enough to drain under torture);
    - 0-2 fault atoms of {!Mmdb_fault.Fault_plan.spec_names};
    - a workload of 1-48 transactions, checkpointed every
      [max 4 (txns / 3)];
    - the crash: after [k] submissions, or at one of the instants a
      crash-free probe of the same configuration exposes (just after a
      log-page write starts, mid-page-write, between arrivals, past
      quiesce);
    - optionally a second crash of the {e recovery itself} after a drawn
      number of its replay, undo and write-back steps (half the time
      inside write-back), followed by a restart (FAULT012);
    - the replay configuration: 1-4 workers, value, command or adaptive
      logging, and real domains when recovery is not crashed.

    The property is {e no silent corruption}: every run either satisfies
    all recovery invariants (recovered state equals the golden replay,
    money conserved, every acknowledged commit durable, durable log
    passes the protocol audit) or carries an explicit unrecoverable-fault
    report in its tally (battery droop losing acknowledged commits,
    at-rest media damage destroying committed log records).  A violation
    with a quiet fault plane is a bug in the recovery stack; QCheck2
    shrinks it toward fewer transactions, earlier crashes, fewer fault
    atoms, one worker and value logging. *)

type failure = {
  spec : string;  (** the fault atoms, comma-separated, or ["none"] *)
  config : Mmdb_recovery.Recovery_manager.config;
      (** the failing run, replayable with
          {!Mmdb_recovery.Recovery_manager.run} *)
  violations : string list;
      (** the broken invariants, or the exception the run raised *)
}

type report = {
  runs : int;  (** crash-recovery runs over drawn cases (shrinking excluded) *)
  restart_runs : int;
      (** runs whose recovery was crashed mid-replay and restarted; a
          crash budget that outlasts the replay counts zero *)
  flagged : int;
      (** runs that broke an invariant but reported the loss
          unrecoverable *)
  tally : Mmdb_fault.Fault.tally;  (** aggregated over the runs *)
  events : (string * int) list;  (** FAULT-code event counts, aggregated *)
  counterexample : failure option;
      (** the first silent-corruption case, shrunk; the run fails iff
          [Some] *)
}

val run : ?seed:int -> ?count:int -> unit -> report
(** [run ()] checks the property on [count] (default 2000) cases drawn
    from a generator seeded with [seed] (default 7), which also seeds
    each run's workload and fault plan.  Stops at the first
    counterexample and shrinks it.  Deterministic in [seed] and [count].
    @raise Invalid_argument if [count] is below 1 (a run over no cases
    proves nothing). *)

val ok : report -> bool
(** No silent-corruption counterexample. *)

val pp : Format.formatter -> report -> unit
(** Run and restart counts, aggregate tally, FAULT-event counts, and the
    shrunk counterexample if any. *)
