(** AVL tree holding whole tuples — the main-memory access method of
    Section 2.

    The paper's AVL stores the tuples themselves with two child pointers
    per node, so the structure occupies [|R|·(t + 2s) / P] pages.  Nodes
    here live in a growable array; a node's array index determines which
    simulated page it lands on (see {!Pager}), reproducing the paper's
    observation that without special precautions each of the [C] nodes on a
    root-to-leaf path sits on a different page.

    Keys are the schema's key field; key comparisons are charged to the
    environment at the full [comp], i.e. the paper's [Y = 1] (its [Y ≤ 1]
    would let an AVL comparison be cheaper than a B+-tree's within-page
    search).  Duplicate-key inserts replace the stored tuple. *)

type t

val create : env:Mmdb_storage.Env.t -> schema:Mmdb_storage.Schema.t -> unit -> t

val schema : t -> Mmdb_storage.Schema.t

val length : t -> int
(** Number of tuples stored. *)

val height : t -> int
(** Height in nodes (0 for empty). *)

val node_count : t -> int
(** Allocated node slots (drives page placement). *)

val insert : t -> bytes -> unit
(** [insert t tuple] adds (or replaces, on equal key) a tuple. *)

val search : t -> bytes -> bytes option
(** [search t key] finds the tuple whose key field equals the encoded
    [key] (standalone key bytes, as from
    {!Mmdb_storage.Tuple.encode_int_key}). *)

val iter_in_order : t -> (bytes -> unit) -> unit
(** Visit every tuple in ascending key order (no comparison charges; used
    for verification). *)

val range_scan : t -> lo:bytes -> hi:bytes -> (bytes -> unit) -> unit
(** All tuples with [lo <= key <= hi], ascending. *)

val set_visit_hook : t -> (int -> unit) option -> unit
(** [set_visit_hook t (Some f)] makes every node touch during subsequent
    operations call [f node_id] — {!Pager} uses this to route touches
    through a buffer pool. *)

val check_invariants : t -> bool
(** AVL balance (|bf| <= 1), correct heights, and in-order key sorting. *)
