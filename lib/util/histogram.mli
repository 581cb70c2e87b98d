(** Fixed-bucket histogram over floats: equal-width buckets plus
    underflow and overflow bins. *)

type t

val create : lo:float -> hi:float -> buckets:int -> t
(** [create ~lo ~hi ~buckets] builds an empty histogram covering
    [\[lo, hi)] with equal-width buckets plus underflow/overflow bins.
    @raise Invalid_argument if [hi <= lo] or [buckets <= 0]. *)

val add : t -> float -> unit
(** Record one observation. *)

val count : t -> int
(** Total observations recorded. *)

val bucket_counts : t -> int array
(** Counts per regular bucket (excludes under/overflow). *)

val underflow : t -> int
val overflow : t -> int

val bucket_bounds : t -> int -> float * float
(** [bucket_bounds t i] is the [\[lo, hi)] range of bucket [i]. *)

val pp : Format.formatter -> t -> unit
(** ASCII rendering, one line per non-empty bucket with a bar. *)
