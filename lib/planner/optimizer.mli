(** Access planning for large memories (Section 4).

    Selinger-style planning collapses once hash algorithms win: "since the
    performance of these algorithms is not affected by the input order of
    the tuples and since there is only one algorithm to choose from, query
    optimization is reduced to simply ordering the operators so that the
    most selective operations are pushed towards the bottom of the query
    tree."  The optimizer therefore: (1) pushes selections below joins;
    (2) orients each join so the smaller estimated input is the build
    side; (3) prices the four Section 3 algorithms with the analytic model
    and keeps the cheapest — hybrid hash whenever [|M| >= √(|S|·F)];
    (4) answers an equality on the key of an indexed base table with one
    index probe — [⌈log2 ||R||⌉] comparisons (Section 2) where a scan
    examines all [||R||] tuples.

    The [allow_hash = false] mode restricts the choice to sort-merge — the
    disk-era optimizer used as the baseline in experiment E8. *)

type config = {
  mem_pages : int;
  fudge : float;
  allow_hash : bool;
}

val default_config : config
(** 256 pages, F = 1.2, hashing allowed. *)

type join_choice = {
  algorithm : Mmdb_exec.Joiner.algorithm;
  swapped : bool;  (** true when the right input becomes the build side *)
  est_build_pages : int;
  est_probe_pages : int;
  est_mem_pages : int;  (** [max mem_pages √(|S|·F)], the priced memory *)
  est_workload : Mmdb_model.Join_model.workload;  (** the priced workload *)
  est_ops : Mmdb_model.Join_model.ops;
      (** per-term breakdown of [est_seconds] *)
  est_seconds : float;  (** analytic cost under Table 2 constants *)
}

type grouping = {
  est_groups : int;
      (** {!Selectivity.estimate} of the groups, rounded up: the count
          {!Mmdb_exec.Aggregate}'s group table is sized by *)
  est_partitions : int;  (** its disk partitions B at that count; 0 is one pass *)
}
(** How a hash-grouping node (aggregation, [DISTINCT], set operation)
    sizes its group table. *)

type plan =
  | P_scan of string
  | P_index_lookup of {
      table : string;
      column : string;  (** the table's key column *)
      value : Mmdb_storage.Tuple.value;
      kind : Catalog.index_kind;  (** the index {!Catalog.lookup} probes *)
    }
      (** Zero or one tuple of [table] whose key equals [value].  Planned
          for an [Eq] on the key wherever it sits in a chain of
          selections directly over the table's scan, when the table has
          an index; the chain's other predicates become filters above
          it. *)
  | P_filter of { input : plan; pred : Algebra.predicate }
  | P_project of { input : plan; columns : string list; distinct : grouping option }
      (** [distinct] is [Some] for [DISTINCT]: a grouping on the whole
          projected tuple, sized by the projection's estimate *)
  | P_join of {
      left : plan;
      right : plan;
      left_key : string;
      right_key : string;
      choice : join_choice;
    }
  | P_aggregate of {
      input : plan;
      group_by : string;
      aggs : Mmdb_exec.Aggregate.spec list;
      grouping : grouping;  (** sized by the aggregation's estimate *)
    }
  | P_order_by of { input : plan; column : string; descending : bool }
  | P_set_op of { op : Algebra.set_op; left : plan; right : plan; grouping : grouping }
      (** one grouping of both inputs, sized by the estimate of their
          union: the group table holds every distinct tuple of either *)

val output_schema : Catalog.t -> Algebra.expr -> Mmdb_storage.Schema.t
(** Schema of an expression's result.  Join results carry columns prefixed
    [r_]/[s_] (left/right).  @raise Not_found on unknown tables,
    [Invalid_argument] on unknown columns. *)

val plan : Catalog.t -> config -> Algebra.expr -> plan
(** Optimize an expression.
    @raise Mmdb_fault.Fault.Io_error from the storage layer when a fault
    plan is armed (pricing a join reads {!Catalog.stats}, which scans a
    changed table). *)

val estimated_cost : plan -> float
(** Sum of the join choices' analytic costs (seconds). *)

val estimated_ops : plan -> Mmdb_model.Join_model.ops
(** Per-term breakdown of {!estimated_cost}: the sum of every join
    choice's [est_ops].  [Join_model.seconds cost (estimated_ops p)]
    agrees with [estimated_cost p] up to float associativity — checked by
    [Mmdb_verify.Model_check] as MODEL010. *)

val join_choices : plan -> join_choice list
(** Every join choice in the plan, preorder. *)

val explain : plan -> string
(** Human-readable plan tree with algorithm choices and estimates; an
    index probe prints as [index-lookup acct.id = 7 (btree)], an
    aggregation as [aggregate by r_dept (1 aggs) groups=20 one-pass]
    (or [two-pass B=3] when its groups overflow [mem_pages]). *)
