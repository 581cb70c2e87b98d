(** GRACE hash join (Section 3.6).

    Phase 1 partitions both relations into [|M|] compatible sets with one
    output buffer page each (writes are random I/O); phase 2 joins each
    pair (R_i, S_i) by building an in-memory hash table over R_i and
    probing it with S_i.  Following the paper, hashing replaces the
    original proposal's hardware sorter in phase 2 "to provide a fair
    comparison". *)

val join : mem_pages:int -> fudge:float ->
  Mmdb_storage.Relation.t -> Mmdb_storage.Relation.t ->
  Join_common.emit -> int
(** [join ~mem_pages ~fudge r s emit] returns the emitted-pair count.
    @raise Invalid_argument on key-width mismatch or [mem_pages <= 0]. *)
