(** Simulated wall clock.

    The repository never measures real elapsed time for the paper's
    experiments; operators advance this clock by the Table 2 cost of each
    primitive, exactly as the paper's analysis charges them.  This makes
    experiment output deterministic and hardware-independent. *)

type t

val create : unit -> t
(** A clock at time 0. *)

val now : t -> float
(** Current simulated time in seconds. *)

val advance : t -> float -> unit
(** [advance t dt] moves time forward by [dt] seconds.
    @raise Invalid_argument if [dt] is negative. *)

val advance_to : t -> float -> unit
(** [advance_to t at] moves time forward to absolute time [at]; no-op if
    [at] is in the past (useful for device-busy-until bookkeeping). *)
