(** Instrumentation environment threaded through every storage and operator
    call: the cost model, the simulated clock, and the operation counters.

    Charging a primitive does two things at once — bumps the matching
    counter and advances the clock by the Table 2 constant — so counted
    operations and simulated time can never drift apart. *)

type t = {
  cost : Cost.t;
  clock : Sim_clock.t;
  counters : Counters.t;
}

val create : unit -> t
(** Fresh environment charging {!Cost.table2}. *)

val charge_comp : t -> unit
(** One key comparison. *)

val charge_comps : t -> int -> unit
(** [charge_comps env n] charges [n] comparisons in one clock update. *)

val charge_hash : t -> unit
(** One key hash. *)

val charge_move : t -> unit
(** One tuple move. *)

val charge_swap : t -> unit
(** One tuple swap (priority-queue sift step, Section 3.4). *)

val charge_io_seq_read : t -> unit
val charge_io_seq_write : t -> unit
val charge_io_rand_read : t -> unit
val charge_io_rand_write : t -> unit

val elapsed : t -> float
(** Simulated seconds since creation (or last clock reset). *)
