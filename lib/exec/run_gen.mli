(** Sorted-run generation by replacement selection (Section 3.4, step 1).

    "Scan S and produce output runs using a selection tree or some other
    priority queue structure ... a typical run will be approximately 2·|M|
    pages long."  The initial read of the relation is free (the paper
    excludes it); writing run pages charges sequential I/O; every heap
    comparison charges [comp + swap] — matching the
    [||R||·log2({M}) · (comp+swap)] term. *)

val runs : mem_pages:int -> Mmdb_storage.Relation.t ->
  Mmdb_storage.Relation.t list
(** [runs ~mem_pages rel] produces sorted runs of [rel] using a priority
    queue of [mem_pages] pages' worth of tuples.  Each run is a sealed
    temporary relation on [rel]'s disk; the caller frees them.
    @raise Invalid_argument if [mem_pages <= 0]. *)
