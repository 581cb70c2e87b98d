(** Duplicate-eliminating projection (Section 3.9).

    "This same hybrid-hash algorithm appears to be the algorithm of choice
    for the projection operator as projection with duplicate elimination
    is very similar in nature to the aggregate function operation (in
    projection we are grouping identical tuples)."  Tuples are projected
    to the requested columns and split by {!Partition.split_fraction}
    on a hash of the {e whole} projected tuple
    ({!Hash_fn.whole_tuple}), exactly as {!Aggregate.hybrid} splits on
    the group key: the resident fraction is deduplicated in memory, each
    spilled partition on re-read. *)

val project_schema : Mmdb_storage.Schema.t -> cols:string list ->
  Mmdb_storage.Schema.t
(** Schema of the projection, keyed on the first projected column.
    @raise Invalid_argument on an empty/unknown column list. *)

val projector : Mmdb_storage.Schema.t -> cols:string list ->
  Mmdb_storage.Schema.t -> bytes -> bytes
(** [projector schema ~cols out_schema] is the byte-level row projector
    matching {!project_schema}; the executor's plain projection uses it
    too. *)

val distinct : mem_pages:int -> fudge:float ->
  cols:string list -> Mmdb_storage.Relation.t -> Mmdb_storage.Relation.t
(** [distinct ~mem_pages ~fudge ~cols rel] materialises the
    duplicate-free projection.  Charges: one [move] per input tuple (the
    projection), one [hash] per tuple plus one per spilled tuple on
    re-read, one [comp] per dedup-table lookup, partition I/O when
    spilling, charged writes of the result. *)

val sort_distinct : mem_pages:int -> cols:string list ->
  Mmdb_storage.Relation.t -> Mmdb_storage.Relation.t
(** The sort-based baseline: project, externally sort on the first
    projected column, and drop duplicates within each equal-key run in a
    final scan.  Same result as {!distinct}; the cost comparison is
    experiment E9's point. *)
