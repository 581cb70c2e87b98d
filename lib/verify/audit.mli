(** Unified invariant audit: one driver over every analyzer in the
    verification layer plus the invariant hooks the structures already
    expose.  Components are named so a report reads like a checklist.

    Structure codes: [IDX001] B-tree invariant broken, [IDX002] AVL,
    [IDX003] paged BST, [IDX004] heap property. *)

type component =
  | Btree of string * Mmdb_index.Btree.t
  | Avl of string * Mmdb_index.Avl.t
  | Paged_bst of string * Mmdb_index.Paged_bst.t
  | Heap_check of string * (unit -> bool)
      (** {!Mmdb_util.Heap} is polymorphic, so the caller closes over the
          instance: [Heap_check ("merge heap", fun () ->
          Heap.check_invariant h)] *)
  | Pool of { name : string; pool : Mmdb_storage.Buffer_pool.t;
              expect_unpinned : bool }
  | Log of { name : string; complete : bool;
             records : Mmdb_recovery.Log_record.t list }
  | Plan of { name : string; catalog : Mmdb_planner.Catalog.t;
              expr : Mmdb_planner.Algebra.expr }
  | Schedule of { name : string;
                  events : Mmdb_recovery.Schedule.event list;
                  log : Mmdb_recovery.Log_record.t list }
      (** A recorded transaction schedule audited by {!Schedule_check}
          (protocol and race codes); [log] is the full WAL submission
          stream cross-checked by the dependency audit ([[]] skips those
          checks). *)
  | Model of { name : string; check : unit -> Mmdb_util.Diag.t list }
      (** A cost-model conformance check ({!Model_check}), thunked
          because it executes a workload: [Model { name = "model suite";
          check = fun () -> Model_check.suite_diags
          (Model_check.run_suite ()) }]. *)

val run_all : component list -> (string * Mmdb_util.Diag.t list) list
(** Audit every component, pairing each name with its findings. *)

val ok : component list -> bool
(** No error-severity finding in any component. *)

val report : Format.formatter -> (string * Mmdb_util.Diag.t list) list -> bool
(** Print one line per component ([ok] or the diagnostics) plus a summary;
    returns [true] when no component reported errors. *)

val code_catalogue : (string * string) list
(** The [IDX] codes owned by this module. *)
