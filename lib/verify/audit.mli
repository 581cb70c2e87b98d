(** Invariant audit: the checks of the two index structures a table can
    carry, the report that prints any analyzers' findings as a
    checklist, and the harness of the drawn checks ({!Torture},
    {!Txn_fuzz}, the MVCC pass).  A caller runs the analyzers it needs
    ({!Log_check.audit}, {!Mmdb_planner.Plan_check.check},
    {!Schedule_check.audit}, the checks below) and pairs each result
    with a name for {!report}.

    Structure codes: [IDX001] B-tree invariant broken, [IDX002] AVL. *)

val btree : Mmdb_index.Btree.t -> Mmdb_util.Diag.t list
(** [IDX001] when {!Mmdb_index.Btree.check_invariants} fails. *)

val avl : Mmdb_index.Avl.t -> Mmdb_util.Diag.t list
(** [IDX002] when {!Mmdb_index.Avl.check_invariants} fails. *)

val report : Format.formatter -> (string * Mmdb_util.Diag.t list) list -> bool
(** Print one line per named result ([ok] or the diagnostics) plus a
    summary; returns [true] when no result holds an error. *)

val property : name:string -> seed:int -> count:int -> 'a QCheck2.Gen.t ->
  (counted:bool -> 'a -> bool) -> ('a * exn option) option
(** [property ~name ~seed ~count gen holds] checks [holds] on [count]
    cases drawn from [gen] by a generator seeded with [seed], and
    shrinks the first case that is false or raises.  [holds] is told
    [~counted:false] on the runs shrinking makes.  Returns the shrunk
    case with the exception it raised, if any.
    @raise Invalid_argument ([name ^ ": count < 1"]) if [count] is below
    1: a run over no cases proves nothing. *)

val code_catalogue : (string * string) list
(** The [IDX] codes owned by this module. *)
