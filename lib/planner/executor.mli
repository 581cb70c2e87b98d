(** Plan execution over the storage and operator layers.

    Scans, index lookups, filters, non-distinct projections and joins
    stream encoded tuples into their parent and build no relation: a
    join runs its algorithm when its parent drains it and frees its
    inputs after.  A filter charges one comparison per tuple it tests.
    An aggregation, a [DISTINCT] and a set operation drain their inputs
    straight into one group table when the optimizer's group estimate
    fits in memory ({!Mmdb_exec.Aggregate}); a spilling one stores its
    input (uncharged) before it splits it.  [ORDER BY] and a join's
    inputs block: their [Mmdb_exec] operators take relations, so a
    streamed input is appended (uncharged) into a temporary relation on
    the base tables' simulated disk, and a scan passes its table
    itself.  Join inputs are re-keyed views
    ({!Mmdb_storage.Relation.with_schema}) so any column can serve as the
    join key; join outputs concatenate left-then-right regardless of which
    side the optimizer chose to build on. *)

val run : Catalog.t -> Optimizer.config -> Optimizer.plan ->
  Mmdb_storage.Relation.t
(** Execute a plan, returning the (sealed) result relation: a streamed
    root is materialised here.  Its schema matches
    {!Optimizer.output_schema} of the planned expression.  Each
    intermediate result's pages are freed once its parent node has
    consumed it; catalog tables are never freed.
    @raise Mmdb_fault.Fault.Io_error and
    @raise Mmdb_fault.Fault.Unrecoverable from the storage layer when a
    fault plan is armed (execution reads and spills pages). *)

val run_rows : Catalog.t -> Optimizer.config -> Optimizer.plan ->
  Mmdb_storage.Tuple.value list list
(** {!run} then {!rows}, but the root's tuples are decoded as they
    stream, so a plan of streamed nodes builds no relation; a blocking
    root's result is freed once decoded. *)

type node_obs = {
  path : string;  (** ["$"] for the root, ["$.0"], ["$.0.1"], … below *)
  kind : string;
      (** ["scan:name"], ["index:name"], ["filter"], ["join:hybrid"], … *)
  output_tuples : int;
  output_pages : int;  (** [⌈output_tuples / output_tuples_per_page⌉] *)
  output_tuples_per_page : int;
  total : Mmdb_storage.Counters.t;  (** node including its inputs *)
  self : Mmdb_storage.Counters.t;  (** node alone (children subtracted) *)
  total_seconds : float;
  self_seconds : float;
}
(** Per-node observation from an instrumented execution. *)

val run_traced : Catalog.t -> Optimizer.config -> Optimizer.plan ->
  Mmdb_storage.Relation.t * node_obs list
(** Like {!run}, through the same nodes, but records each plan node's
    observed operation counters and simulated seconds, in post-order.
    Each node's output is materialised (uncharged) before its counters
    are read, so a streamed node's work (a join's hashes and
    comparisons, a filter's comparisons) is charged to that node, not to
    the parent that drains it.  The [self] fields isolate one operator's
    charges so they can be checked against the cost model's prediction
    for that node ([Mmdb_verify.Model_check]). *)

val query : Catalog.t -> Optimizer.config -> Algebra.expr ->
  Mmdb_storage.Relation.t
(** [query catalog cfg expr] = plan + run. *)

val rows : Mmdb_storage.Relation.t -> Mmdb_storage.Tuple.value list list
(** Decode every tuple (convenience for examples and tests). *)
