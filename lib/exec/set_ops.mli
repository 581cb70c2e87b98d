(** Set-semantics union, intersection and difference by hashing.

    Section 3.9 argues hash algorithms carry over to "other relational
    operations"; these operators follow the same pattern as the
    hybrid-hash projection.  When the larger input does not fit, both
    inputs are split by {!Partition.split_fraction} on the same
    whole-tuple hash ({!Hash_fn.whole_tuple}) with no resident fraction
    ([q = 0]), so equal tuples meet in the same partition pair whatever
    each schema's key; each pair is then resolved with an in-memory
    table.  Results are duplicate-free.

    Inputs must be byte-compatible: equal tuple widths (column names may
    differ; the left schema names the result). *)

val union : mem_pages:int -> fudge:float ->
  Mmdb_storage.Relation.t -> Mmdb_storage.Relation.t ->
  Mmdb_storage.Relation.t
(** Distinct tuples present in either input. *)

val intersection : mem_pages:int -> fudge:float ->
  Mmdb_storage.Relation.t -> Mmdb_storage.Relation.t ->
  Mmdb_storage.Relation.t
(** Distinct tuples present in both inputs. *)

val difference : mem_pages:int -> fudge:float ->
  Mmdb_storage.Relation.t -> Mmdb_storage.Relation.t ->
  Mmdb_storage.Relation.t
(** Distinct tuples of the left input absent from the right. *)
