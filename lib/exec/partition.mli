(** Hash partitioning of a relation (Section 3.3).

    Both relations of a join are split with the {e same} hash function so
    the partitions are compatible: R_i need only be joined with S_i.
    Every spilling hash operator in this library splits here on a key
    hash: GRACE, and through {!Hybrid_hash.run}, the hybrid kernel, the
    hybrid join and grouping (aggregation, and duplicate elimination and
    the set operations keyed on the whole tuple).  Tuples moving to an
    output buffer charge [move]; buffer spills charge the chosen write
    mode; re-reading a partition charges its pages' sequential reads. *)

val buckets : Mmdb_storage.Relation.t -> write_mode:Mmdb_storage.Disk.io_mode ->
  int -> Mmdb_storage.Relation.t array
(** [buckets like ~write_mode n] is [n] empty temporary relations with
    [like]'s disk and schema, whose spilled pages charge [write_mode]. *)

val split_fraction : q:float -> nbuckets:int -> hash:Hash_fn.t ->
  write_mode:Mmdb_storage.Disk.io_mode -> keep:(bytes -> unit) ->
  Mmdb_storage.Relation.t -> ((bytes -> unit) -> unit) ->
  Mmdb_storage.Relation.t array
(** [split_fraction ~q ~nbuckets ~hash ~write_mode ~keep like read] — the
    hybrid split: it hashes every tuple [read] gives once, hands [keep]
    (in read order, uncharged) those whose uniformised hash falls below
    [q], moves the rest by hash range to [nbuckets > 0] {!buckets} like
    [like], and returns those sealed.
    With [q = 0] it is GRACE's split. *)

val iter_bucket : Mmdb_storage.Relation.t -> (bytes -> unit) -> unit
(** Charged sequential scan of a partition read back. *)

val free : Mmdb_storage.Relation.t array -> unit
(** Release all partitions' pages. *)
