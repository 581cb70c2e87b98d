(** Invariant audit: the checks of the two index structures a table can
    carry, and the report that prints any analyzers' findings as a
    checklist.  A caller runs the analyzers it needs ({!Log_check.audit},
    {!Mmdb_planner.Plan_check.check}, {!Schedule_check.audit}, the checks
    below) and pairs each result with a name for {!report}.

    Structure codes: [IDX001] B-tree invariant broken, [IDX002] AVL. *)

val btree : Mmdb_index.Btree.t -> Mmdb_util.Diag.t list
(** [IDX001] when {!Mmdb_index.Btree.check_invariants} fails. *)

val avl : Mmdb_index.Avl.t -> Mmdb_util.Diag.t list
(** [IDX002] when {!Mmdb_index.Avl.check_invariants} fails. *)

val report : Format.formatter -> (string * Mmdb_util.Diag.t list) list -> bool
(** Print one line per named result ([ok] or the diagnostics) plus a
    summary; returns [true] when no result holds an error. *)

val code_catalogue : (string * string) list
(** The [IDX] codes owned by this module. *)
