(** B+-tree — the disk-oriented access method of Section 2.

    Leaves hold whole tuples (the tree {e is} the keyed relation, as in the
    paper's space analysis: [D = ||R|| / (0.69 · P/t)] leaf pages); internal
    nodes hold separator keys and child pointers with fanout
    [⌊P / (K + s)⌋].  Every node corresponds to one page; node ids feed the
    visit hook so experiments can route accesses through a buffer pool.
    Within-node binary search charges one [comp] per probe, giving the
    paper's [⌈log2 ||R||⌉] total comparisons per lookup.

    Leaves are chained left-to-right, so the sequential-access case of
    Section 2 (read [N] records from a start key) walks sibling pointers. *)

type t

val create : env:Mmdb_storage.Env.t -> schema:Mmdb_storage.Schema.t ->
  ?page_size:int -> unit -> t
(** [page_size] defaults to the paper's 4096; the pointer width (the
    paper's [s]) is 4 bytes.  Capacities derive from the schema's key/tuple
    widths.
    @raise Invalid_argument if the derived fanout is below 3 or leaf
    capacity below 2. *)

val bulk_load : env:Mmdb_storage.Env.t -> schema:Mmdb_storage.Schema.t ->
  ?page_size:int -> ?occupancy:float ->
  bytes list -> t
(** [bulk_load ~env ~schema tuples] builds a tree bottom-up from
    key-sorted, duplicate-free [tuples], filling nodes to [occupancy]
    (default 1.0; Yao's 0.69 reproduces random-insertion space usage —
    the occupancy ablation).  The last node per level borrows from its
    left sibling when underfull, so all invariants hold.
    @raise Invalid_argument if the input is unsorted / has duplicates or
    [occupancy] is outside (0.5, 1.0]. *)

val schema : t -> Mmdb_storage.Schema.t

val length : t -> int
(** Tuples stored. *)

val height : t -> int
(** Levels of nodes on a root-to-leaf path (1 for a lone leaf root). *)

val node_count : t -> int
(** Total live nodes = pages occupied by the tree. *)

val leaf_count : t -> int

val fanout : t -> int
(** Internal-node child capacity [⌊P/(K+s)⌋]. *)

val leaf_capacity : t -> int
(** Tuples per leaf [⌊(P - header)/t⌋]. *)

val insert : t -> bytes -> unit
(** Add a tuple; equal-key insert replaces. *)

val search : t -> bytes -> bytes option
(** Lookup by standalone encoded key. *)

val iter_in_order : t -> (bytes -> unit) -> unit
(** Leaf-chain scan, ascending (uncharged; verification). *)

val range_scan : t -> lo:bytes -> hi:bytes -> (bytes -> unit) -> unit

val set_visit_hook : t -> (int -> unit) option -> unit
(** Route node touches to a pager (one node = one page). *)

val avg_leaf_occupancy : t -> float
(** Mean fraction of leaf capacity in use — Yao's 69% claim is testable. *)

val check_invariants : t -> bool
(** Sorted keys everywhere, children within separator bounds, uniform leaf
    depth, occupancy >= half except the root. *)
