(** Deterministic pseudo-random number generation.

    All randomness in the repository flows through this module so that every
    experiment is reproducible from a fixed seed.  The generator is
    xorshift64*, which is fast, has a 2^64 - 1 period, and passes the
    statistical tests that matter for workload generation (we do not need
    cryptographic strength). *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] builds a generator.  A zero seed is remapped to a fixed
    non-zero constant because xorshift has a fixed point at zero. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)].  @raise Invalid_argument if
    [bound <= 0]. *)

val int_in_range : t -> lo:int -> hi:int -> int
(** [int_in_range t ~lo ~hi] is uniform in [\[lo, hi\]] inclusive.
    @raise Invalid_argument if [hi < lo]. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bool : t -> bool
(** [bool t] is a fair coin flip. *)

val shuffle : t -> 'a array -> unit
(** [shuffle t a] permutes [a] in place (Fisher-Yates). *)

val sample_without_replacement : t -> n:int -> k:int -> int array
(** [sample_without_replacement t ~n ~k] is [k] distinct values drawn
    uniformly from [\[0, n)], in random order.
    @raise Invalid_argument if [k > n] or [k < 0]. *)

val exponential : t -> mean:float -> float
(** [exponential t ~mean] draws from an exponential distribution; used for
    transaction inter-arrival times in the recovery simulator. *)

val zipf : t -> n:int -> theta:float -> int
(** [zipf t ~n ~theta] draws from a Zipf-like distribution over [\[0, n)],
    skew [theta] (0 = uniform).  Used for skewed key workloads.  Uses the
    rejection-free inverse-CDF approximation of Gray et al. *)
