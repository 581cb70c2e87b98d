(** Simple (multipass) hash join (Section 3.5).

    Pass 1 builds an in-memory hash table over the slice of R whose hash
    falls in a window sized to [|M|/F] pages, probes it with the matching
    slice of S, and writes both relations' passed-over tuples to disk;
    later passes repeat on the passed-over files until R is exhausted.
    [A = ⌈|R|·F / |M|⌉] passes result. *)

val join : mem_pages:int -> fudge:float ->
  Mmdb_storage.Relation.t -> Mmdb_storage.Relation.t ->
  Join_common.emit -> int
(** [join ~mem_pages ~fudge r s emit] returns the emitted-pair count.
    Temporary files are freed.  @raise Invalid_argument on key-width
    mismatch or [mem_pages <= 0]. *)

val passes : mem_pages:int -> fudge:float -> r_pages:int -> int
(** Predicted pass count [A] (exposed for tests and experiment labels). *)
