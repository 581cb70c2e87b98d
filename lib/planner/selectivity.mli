(** Cardinality estimation in the Selinger tradition — the planner pushes
    the most selective operations toward the bottom of the tree
    (Section 4), so it needs output-size estimates. *)

val estimate : Catalog.t -> Algebra.expr -> float
(** Estimated output cardinality in tuples.  Joins use
    [|L|·|R| / max(dL, dR)]; distinct projection caps at the product of
    column cardinalities; aggregation outputs one tuple per group.
    @raise Mmdb_fault.Fault.Io_error from the storage layer when a fault
    plan is armed ({!Catalog.stats} scans a changed table). *)

val estimated_pages : Catalog.t -> Algebra.expr -> tuples_per_page:int -> int
(** {!estimate} converted to pages (at least 1 for non-empty). *)
