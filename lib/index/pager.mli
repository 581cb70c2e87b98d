(** Node-to-page mapping for in-memory tree structures.

    Section 2 analyses both trees in terms of page faults: the AVL tree
    packs [P / (t + 2s)] nodes per page, the B+-tree one node per page.
    This module lazily assigns node ids to simulated disk pages and routes
    every node touch through a {!Mmdb_storage.Buffer_pool}, so lookups on
    the real tree implementations produce the fault counts the paper's
    formulas predict. *)

type t

val create : disk:Mmdb_storage.Disk.t -> pool_capacity:int ->
  policy:Mmdb_storage.Buffer_pool.policy -> nodes_per_page:int -> t
(** @raise Invalid_argument if [nodes_per_page <= 0]. *)

val nodes_per_page : t -> int

val hook : t -> int -> unit
(** [hook t node_id] faults the node's page into the pool (the function to
    install as a visit hook). *)

val attach_avl : t -> Avl.t -> unit
(** Install {!hook} on an AVL tree. *)

val attach_btree : t -> Btree.t -> unit

val pages_touched : t -> int
(** Distinct node pages materialised so far (the structure's size [S] in
    pages, for comparison with the paper's [|R|(t+2s)/P]). *)

val pool : t -> Mmdb_storage.Buffer_pool.t
