(** Hash partitioning of a relation (Section 3.3).

    Both relations of a join are split with the {e same} hash function so
    the partitions are compatible: R_i need only be joined with S_i.
    Every spilling hash operator in this library splits here on a key
    hash: the joins, and grouping (aggregation, and duplicate elimination
    and the set operations keyed on the whole tuple).
    Tuples moving to an output buffer charge [move]; buffer spills charge
    the chosen write mode; re-reading a previously spilled input charges
    its scan mode. *)

type scan_mode =
  | Free  (** first read of a base relation — excluded by the paper *)
  | Charged of Mmdb_storage.Disk.io_mode
      (** re-reading temporary data written by an earlier phase *)

val split : scan:scan_mode -> nbuckets:int -> hash:Hash_fn.t ->
  write_mode:Mmdb_storage.Disk.io_mode -> Mmdb_storage.Relation.t ->
  Mmdb_storage.Relation.t array
(** [split ~scan ~nbuckets ~hash ~write_mode rel] distributes tuples into
    [nbuckets] sealed temporary relations by [hash mod nbuckets].
    @raise Invalid_argument if [nbuckets <= 0]. *)

val split_fraction : scan:scan_mode -> q:float -> nbuckets:int ->
  hash:Hash_fn.t -> write_mode:Mmdb_storage.Disk.io_mode ->
  Mmdb_storage.Relation.t -> bytes list * Mmdb_storage.Relation.t array
(** [split_fraction ~scan ~q ~nbuckets ...] — the hybrid split: tuples
    whose uniformised hash falls below [q] stay in memory (returned list,
    in scan order, uncharged — the caller's hash-table insert charges the
    move); the rest are moved into [nbuckets] disk partitions.  With
    [q = 0.] this degenerates to {!split}. *)

val iter_bucket : Mmdb_storage.Relation.t -> (bytes -> unit) -> unit
(** Charged sequential scan of a partition during the join phase. *)

val free : Mmdb_storage.Relation.t array -> unit
(** Release all partitions' pages. *)
