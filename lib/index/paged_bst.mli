(** Unbalanced paged binary search tree — the structure dismissed in
    Section 2's footnote: "if a paged binary tree organization is used
    instead, the fanout per node will be slightly worse than the B-tree;
    furthermore, paged binary trees are not balanced and the worst case
    access time may be significantly poorer than in the case of a B-tree"
    (citing CESA82/MUNT70).

    A plain BST over tuples, nodes kept in allocation order (the order
    {!Pager} packs {!Avl} nodes into pages).  No rebalancing:
    random insertion gives ~1.39·log2 n expected comparisons, but sorted
    insertion degrades to a linked list, the footnote's point
    ([test_index] checks both heights). *)

type t

val create : env:Mmdb_storage.Env.t -> schema:Mmdb_storage.Schema.t ->
  unit -> t

val length : t -> int
val height : t -> int

val insert : t -> bytes -> unit
(** Equal-key insert replaces the stored tuple. *)

val search : t -> bytes -> bytes option

val check_invariants : t -> bool
(** BST ordering (no balance requirement, of course). *)
