(** Hash join under virtual memory — Section 6 names "the effect of
    virtual memory on query processing algorithms" as future research;
    this operator answers it for the join.

    Instead of partitioning when the build table exceeds [|M|] (the
    Section 3 algorithms' explicit strategy), the table is built over the
    {e whole} of R and every table access may page-fault: an access to a
    table of [T] pages with [|M|] resident faults with probability
    [max(0, 1 − |M|/T)], charging one random I/O (the classic
    thrashing model; cf. the paged-binary-tree analysis of Section 2).
    Faults are drawn from a seeded RNG so runs stay deterministic.

    The result is identical to the other joins; only the charged cost
    differs.  The ablation bench shows explicit partitioning beats VM
    paging once R outgrows memory — the implicit answer the paper's
    algorithm choice presumes. *)

val join : mem_pages:int -> fudge:float ->
  Mmdb_storage.Relation.t -> Mmdb_storage.Relation.t ->
  Join_common.emit -> int
(** [join ~mem_pages ~fudge r s emit] builds the full hash table over R
    under VM paging and probes it with S.  Returns the match count. *)
