(** Invariant audit: the index-structure checks, and the report that
    prints any analyzers' findings as a checklist.  A caller runs the
    analyzers it needs ({!Log_check.audit}, {!Pool_check.audit},
    {!Mmdb_planner.Plan_check.check}, {!Schedule_check.audit}, the
    checks below) and pairs each result with a name for {!report}.

    Structure codes: [IDX001] B-tree invariant broken, [IDX002] AVL,
    [IDX003] paged BST, [IDX004] heap property. *)

val btree : Mmdb_index.Btree.t -> Mmdb_util.Diag.t list
(** [IDX001] when {!Mmdb_index.Btree.check_invariants} fails. *)

val avl : Mmdb_index.Avl.t -> Mmdb_util.Diag.t list
(** [IDX002] when {!Mmdb_index.Avl.check_invariants} fails. *)

val paged_bst : Mmdb_index.Paged_bst.t -> Mmdb_util.Diag.t list
(** [IDX003] when {!Mmdb_index.Paged_bst.check_invariants} fails. *)

val heap : 'a Mmdb_util.Heap.t -> Mmdb_util.Diag.t list
(** [IDX004] when {!Mmdb_util.Heap.check_invariant} fails. *)

val report : Format.formatter -> (string * Mmdb_util.Diag.t list) list -> bool
(** Print one line per named result ([ok] or the diagnostics) plus a
    summary; returns [true] when no result holds an error. *)

val code_catalogue : (string * string) list
(** The [IDX] codes owned by this module. *)
