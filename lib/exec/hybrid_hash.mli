(** Hybrid hash join (Section 3.7) — the paper's new algorithm and the
    winner of Figure 1 over most of the memory range.

    Memory holds [B] one-page output buffers plus a hash table over the
    in-memory partition R0 (a fraction [q] of R); only the remaining
    [1 − q] of both relations touches disk.  With one output buffer
    ([|M| > |R|·F/2]) the partition writes are sequential — the source of
    Figure 1's discontinuity at 0.5.  Partitions whose hash table would
    overflow memory are joined by recursing with a fresh hash function
    (the overflow remedy of Section 3.3). *)

val partitions : mem_pages:int -> fudge:float -> r_pages:int -> int
(** [B = max(0, ⌈(|R|·F − |M|) / (|M| − 1)⌉)]. *)

val q_fraction : mem_pages:int -> fudge:float -> r_pages:int -> float
(** [q = ((|M| − B)/F) / |R|], clamped to [\[0, 1\]]. *)

val join : mem_pages:int -> fudge:float ->
  Mmdb_storage.Relation.t -> Mmdb_storage.Relation.t ->
  Join_common.emit -> int
(** [join ~mem_pages ~fudge r s emit] returns the emitted-pair count.
    @raise Invalid_argument on key-width mismatch or [mem_pages <= 1]. *)
