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
}

val create : unit -> t
(** All-zero counters. *)

val snapshot : t -> t
(** Immutable copy (the copy is still a mutable record, but detached). *)

val diff : after:t -> before:t -> t
(** Field-wise subtraction: activity between two snapshots. *)

val total_io : t -> int
(** All page reads and writes, sequential and random. *)

val pp : Format.formatter -> t -> unit
