(** Hybrid hash join (Section 3.7) — the paper's new algorithm and the
    winner of Figure 1 over most of the memory range — and the hybrid
    kernel it shares with hash grouping, Section 3.9's "variant of the
    hybrid-hash algorithm".

    Memory holds [B] one-page output buffers plus a hash table over the
    in-memory partition R0 (a fraction [q] of R); only the remaining
    [1 − q] of both relations touches disk.  With one output buffer
    ([|M| > |R|·F/2]) the partition writes are sequential — the source of
    Figure 1's discontinuity at 0.5. *)

val partitions : mem_pages:int -> fudge:float -> r_pages:int -> int * float
(** [(B, q)] for a table of [r_pages] pages:
    [B = max(0, ⌈(|R|·F − |M|) / (|M| − 1)⌉)] and
    [q = ((|M| − B)/F) / |R|], clamped to [\[0, 1\]]. *)

type input = {
  like : Mmdb_storage.Relation.t;  (** its partitions' disk and schema *)
  read : (bytes -> unit) -> unit;  (** the first read, free *)
  arrive : full:(unit -> bool) -> bytes -> bool;
      (** a tuple reaching the table, hashed already; [false] only when
          the tuple needs a new entry and [full ()] *)
}

type sizing =
  | Build
      (** The join: R fills the table, its size known.  R0 and S0 arrive
          once both are split, a bucket whose R_i would overflow memory is
          re-split unread, and one with an empty side is skipped. *)
  | Estimate
      (** Grouping: resident tuples arrive as the split reads them, and
          every non-empty bucket is read back. *)

val run : mem_pages:int -> fudge:float -> sizing:sizing -> table:Hash_table.t ->
  flush:(unit -> unit) -> seed:int -> r_pages:int -> input list -> int
(** The hybrid kernel: split every input by one hash seeded by [seed],
    with {!partitions} for [r_pages]; the fraction [q] arrives without a
    second hash, the rest is read back bucket by bucket, one hash per
    tuple.  What does not fit is re-split with a fresh seed, up to depth
    8 (the overflow remedy of Section 3.3).  The resident fraction and
    each bucket is a phase.  Within one, once [table] holds [⌊|M|/F⌋]
    data pages a tuple [arrive] refuses moves to its input's overflow
    partition, charged as a split's; at its end [flush] consumes the
    table, which is emptied, and the overflow is re-split, sized as if
    each tuple were a new entry.  Returns the most data pages [table]
    held. *)

val join : mem_pages:int -> fudge:float ->
  Mmdb_storage.Relation.t -> Mmdb_storage.Relation.t ->
  Join_common.emit -> int
(** [join ~mem_pages ~fudge r s emit] returns the emitted-pair count.
    @raise Invalid_argument on key-width mismatch or [mem_pages <= 1]. *)
