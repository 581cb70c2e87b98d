(** Relational division by hashing.

    Section 3.1: "many of the techniques used for executing the relational
    join operator can also be used for other relational operators (e.g.
    aggregate functions, cross product, and {e division})".
    [R(x..., y) ÷ S(y)] returns the distinct [x...] groups of R associated
    with {e every} key value of S — e.g. "suppliers who supply all parts".

    Implementation: the divisor's key set is collected in memory (it is
    small — the paper's argument for TID-key structures); R is grouped by
    its quotient columns with hybrid-style partitioning when the group
    table would overflow memory, and a group is emitted once its divisor
    set covers S. *)

val divide : mem_pages:int -> fudge:float ->
  divisor_col:string -> Mmdb_storage.Relation.t ->
  Mmdb_storage.Relation.t -> Mmdb_storage.Relation.t
(** [divide ~divisor_col r s] — [divisor_col] names the column of [r]
    matched against [s]'s key column (equal widths required).  The result
    schema is [r]'s columns minus [divisor_col], keyed on the first
    remaining column.  An empty [s] yields the distinct projection of the
    quotient columns (vacuous universal quantification).
    @raise Invalid_argument on unknown columns, width mismatch, or when
    [r] has no other column. *)
