(** Seeded, charged hashing of a tuple's key.

    All hash algorithms of Section 3 share one hash function [h] between R
    and S so their partitions are compatible (Section 3.3); recursive
    overflow handling needs a {e different} function per level, hence the
    seed.  Every evaluation charges one [hash] to the environment. *)

type t

val create : env:Mmdb_storage.Env.t -> schema:Mmdb_storage.Schema.t ->
  seed:int -> t
(** A hash function over the schema's key field: joins and grouping;
    under {!Aggregate.whole}'s view the key is the whole tuple. *)

val hash : t -> bytes -> int
(** [hash t tuple] is a non-negative hash of [tuple]; charges one [hash]
    operation. *)

val charge : t -> unit
(** Charge {!hash}'s one [hash] and compute nothing (a re-paid hash). *)

val uniform : t -> bytes -> float
(** [uniform t tuple] maps the hash to [\[0, 1)] — used for proportional
    partition splitting (hybrid's [q] split).  Charges one [hash]. *)
