(** Uniform dispatch over the four Section 3 join algorithms (plus the
    nested-loop oracle) — the interface the planner and the benchmark
    harness program against. *)

type algorithm =
  | Sort_merge_join
  | Simple_hash_join
  | Grace_hash_join
  | Hybrid_hash_join
  | Nested_loop_join

val all : algorithm list
(** The four paper algorithms, in Figure 1 order (excludes nested loop). *)

val name : algorithm -> string

val run : algorithm -> mem_pages:int -> fudge:float ->
  Mmdb_storage.Relation.t -> Mmdb_storage.Relation.t ->
  Join_common.emit -> int
(** Execute the join, returning the match count. *)

val run_measured : algorithm -> mem_pages:int -> fudge:float ->
  Mmdb_storage.Relation.t -> Mmdb_storage.Relation.t -> Op_stats.t
(** Execute with output discarded, capturing time/counter deltas. *)
