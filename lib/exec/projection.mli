(** Duplicate-eliminating projection (Section 3.9).

    "This same hybrid-hash algorithm appears to be the algorithm of choice
    for the projection operator as projection with duplicate elimination
    is very similar in nature to the aggregate function operation (in
    projection we are grouping identical tuples)."  Tuples are projected
    to the requested columns as they are scanned and grouped on the whole
    projected tuple by {!Aggregate.distinct}, the group table of
    {!Aggregate.hybrid}. *)

val project_schema : Mmdb_storage.Schema.t -> cols:string list ->
  Mmdb_storage.Schema.t
(** Schema of the projection, keyed on the first projected column.
    @raise Invalid_argument on an empty/unknown column list. *)

val projector : Mmdb_storage.Schema.t -> cols:string list ->
  Mmdb_storage.Schema.t -> bytes -> bytes
(** [projector schema ~cols out_schema] is the byte-level row projector
    matching {!project_schema}; the executor's plain projection uses it
    too. *)

val distinct : mem_pages:int -> fudge:float -> groups:int ->
  cols:string list -> Mmdb_storage.Relation.t -> Mmdb_storage.Relation.t
(** [distinct ~mem_pages ~fudge ~groups ~cols rel] materialises the
    duplicate-free projection, sized by [groups] expected distinct
    projected tuples.  Charges as {!Aggregate.hybrid} with no aggregate
    columns: one [hash] and one [comp] per tuple, one [move] per distinct
    tuple, partition I/O and a second [hash] per tuple when the groups do
    not fit, charged writes of the result. *)

val sort_distinct : mem_pages:int -> cols:string list ->
  Mmdb_storage.Relation.t -> Mmdb_storage.Relation.t
(** The sort-based baseline: project (one [move] per tuple), externally
    sort on the whole projected tuple ({!Aggregate.whole}), and drop
    adjacent duplicates in a final scan (one [comp] per tuple).  Same
    result as {!distinct}; the cost comparison is experiment E9's
    point. *)
