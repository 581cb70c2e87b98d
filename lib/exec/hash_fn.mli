(** Seeded, charged hashing of a tuple's key or of the whole tuple.

    All hash algorithms of Section 3 share one hash function [h] between R
    and S so their partitions are compatible (Section 3.3); recursive
    overflow handling needs a {e different} function per level, hence the
    seed.  Every evaluation charges one [hash] to the environment. *)

type t

val create : env:Mmdb_storage.Env.t -> schema:Mmdb_storage.Schema.t ->
  seed:int -> t
(** A hash function over the schema's key field (joins, aggregation). *)

val whole_tuple : env:Mmdb_storage.Env.t -> seed:int -> t
(** A hash function over every byte of the tuple: equal tuples hash
    alike whatever their schema's key, as duplicate elimination and the
    set operations need. *)

val hash : t -> bytes -> int
(** [hash t tuple] is a non-negative hash of [tuple]; charges one [hash]
    operation. *)

val charge : t -> unit
(** Charge {!hash}'s one [hash] and compute nothing (a re-paid hash). *)

val uniform : t -> bytes -> float
(** [uniform t tuple] maps the hash to [\[0, 1)] — used for proportional
    partition splitting (hybrid's [q] split).  Charges one [hash]. *)
