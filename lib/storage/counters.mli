(** Operation counters.

    Mirrors the quantities the paper's cost formulas count: comparisons,
    hashes, moves, swaps, sequential and random page I/Os, plus buffer-pool
    faults.  Operators increment these alongside charging the simulated
    clock, so experiments can report both counted operations and charged
    time. *)

type t = {
  mutable comparisons : int;
  mutable hashes : int;
  mutable moves : int;
  mutable swaps : int;
  mutable seq_reads : int;
  mutable seq_writes : int;
  mutable rand_reads : int;
  mutable rand_writes : int;
  mutable faults : int;  (** buffer-pool misses *)
  mutable pool_hits : int;  (** buffer-pool hits *)
  fault : Mmdb_fault.Fault.tally;
      (** media-fault tally: injected/detected/retried/repaired/
          unrecoverable.  The field is immutable but the tally record it
          holds is mutable; share it with a {!Mmdb_fault.Fault_plan} via
          [Fault_plan.create ~tally] so injection sites count here. *)
  ovld : Mmdb_overload.Overload.tally;
      (** overload tally: admissions, typed sheds, deadline timeouts,
          retry-budget exhaustions, breaker trips.  Share it with an
          {!Mmdb_overload.Overload.Admission} (and breakers) via their
          [~tally] argument so service-layer sheds count here. *)
}

val create : unit -> t
(** All-zero counters. *)

val reset : t -> unit

val snapshot : t -> t
(** Immutable copy (the copy is still a mutable record, but detached). *)

val diff : after:t -> before:t -> t
(** Field-wise subtraction: activity between two snapshots. *)

val total_io : t -> int
(** All page reads and writes, sequential and random. *)

val pp : Format.formatter -> t -> unit

val io_retries : t -> int
(** Transient-I/O attempts that were retried (media-fault tally's
    [retried] field — FAULT003 rides). *)

val io_retry_backoff : t -> float
(** Simulated seconds spent waiting out retry backoff before those
    retries succeeded. *)

val sheds : t -> int
(** Arrivals turned away by admission control (overload tally's
    OVLD001/2/3/7/9 rows). *)

val breaker_trips : t -> int
(** Circuit-breaker closed-to-open transitions. *)
