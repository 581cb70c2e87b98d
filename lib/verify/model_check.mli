(** Cost-model conformance analyzer and optimizer optimality lint.

    Three static/dynamic analyses over the Section 3 cost model, each
    reporting stable [MODEL0xx] diagnostics:

    {ol
    {- {b Conformance}: derive an operator's predicted per-term cost
       ({!Mmdb_model.Join_model.ops}) symbolically, execute it under
       counter instrumentation ({!Mmdb_planner.Executor.run_traced} /
       {!Mmdb_exec.Op_stats}), and flag any counter class whose observed
       value falls outside that operator's declared tolerance band
       (MODEL001–MODEL007).  Predictions are evaluated at the {e actual}
       input sizes so estimation error cannot contaminate conformance.}
    {- {b Optimality lint}: find the cheapest algorithm assignment over
       the plan's joins, priced with the same analytic model the
       optimizer used, and flag chosen plans above it (MODEL008), plus
       cost annotations that do not re-price to their own per-term
       breakdown (MODEL010).}
    {- {b Selectivity}: compare the Selinger-style cardinality estimate
       against the executed result (MODEL009).}}

    Workloads the model does not cover (build larger than probe, memory
    below [√(|S|·F)]) are reported as MODEL011 warnings and skipped
    rather than force-fitted. *)

(** {1 Tolerance policy} *)

type band = { lo : float; hi : float; abs : float }
(** Accept [observed ∈ [lo·predicted − abs, hi·predicted + abs]].
    The ratio part states the constant-factor room an idealized formula
    allows its implementation; [abs] absorbs per-partition rounding. *)

type tolerance = {
  comps : band;
  hashes : band;
  moves : band;
  swaps : band;
  seq_ios : band;
  rand_ios : band;
  seconds : band;
}

val tolerance_for : string -> tolerance
(** Declared default bands for an operator kind (the strings of
    {!Mmdb_planner.Executor.node_obs}[.kind]: ["join:hybrid"],
    ["order-by"], ["scan:r"], …).  See DESIGN.md for the rationale
    behind each entry. *)

val scale_tolerance : float -> tolerance -> tolerance
(** Widen ([> 1]) or tighten ([< 1]) every band: [lo/f], [hi·f],
    [abs·f]. *)

(** {1 Conformance} *)

val ops_of_counters : Mmdb_storage.Counters.t -> Mmdb_model.Join_model.ops
(** Project observed counters onto the model's six cost classes
    (sequential reads and writes merge into [seq_ios], likewise
    random). *)

type node_report = {
  path : string;  (** plan location, ["$"], ["$.0"], … *)
  kind : string;  (** operator kind as traced by the executor *)
  predicted : Mmdb_model.Join_model.ops;
  observed : Mmdb_model.Join_model.ops;
  predicted_seconds : float;
  observed_seconds : float;
  diags : Mmdb_util.Diag.t list;
}
(** One plan node's predicted-vs-observed comparison. *)

val check_plan :
  ?tolerance_scale:float ->
  Mmdb_planner.Catalog.t ->
  Mmdb_planner.Optimizer.config ->
  Mmdb_planner.Algebra.expr ->
  node_report list
(** Plan the expression, execute it traced, and check every node's
    observed counters against the model's prediction at the node's
    actual input sizes.  [tolerance_scale] widens (> 1) or tightens
    (< 1) every declared band. *)

val check_planned :
  ?tolerance_scale:float ->
  Mmdb_planner.Catalog.t ->
  Mmdb_planner.Optimizer.config ->
  Mmdb_planner.Optimizer.plan ->
  node_report list
(** {!check_plan} for an already-built physical plan. *)

val check_join :
  ?tolerance_scale:float ->
  Mmdb_exec.Joiner.algorithm ->
  mem_pages:int ->
  fudge:float ->
  Mmdb_storage.Relation.t ->
  Mmdb_storage.Relation.t ->
  Mmdb_util.Diag.t list
(** Conformance for one join algorithm driven directly (independent of
    what the optimizer would choose): build on the first relation, probe
    the second. *)

val report_diags : node_report list -> Mmdb_util.Diag.t list

val pp_report : Format.formatter -> node_report -> unit

(** {1 Optimality lint} *)

val lint_optimality :
  Mmdb_planner.Catalog.t ->
  Mmdb_planner.Optimizer.config ->
  Mmdb_planner.Algebra.expr ->
  Mmdb_util.Diag.t list
(** Price all four algorithms at each join's recorded workload and
    memory, and report MODEL008 when the chosen plan costs more than
    [1 + 1e-9] times the cheapest assignment, MODEL010 when
    [estimated_cost] disagrees with [seconds (estimated_ops)].  Join
    costs are additive and independent, so the cheapest assignment is
    each join's cheapest algorithm: the sum of per-join minima is the
    minimum over all [4^k] assignments. *)

(** {1 Selectivity} *)

val check_selectivity :
  Mmdb_planner.Catalog.t ->
  Mmdb_planner.Algebra.expr ->
  actual:int ->
  Mmdb_util.Diag.t list
(** MODEL009 when the cardinality estimate misses [actual] beyond a wide
    [0.05–20× ± 64] band (Selinger magic numbers are coarse by design;
    the check catches broken statistics, not imprecision). *)

(** {1 Seeded suite} *)

type case = {
  name : string;
  reports : node_report list;  (** per-node conformance, when traced *)
  diags : Mmdb_util.Diag.t list;  (** lint/selectivity/direct-join diags *)
}

val run_suite :
  ?seed:int -> ?tolerance_scale:float -> unit -> case list
(** Build a seeded corpus (three tables of 24/60/12 pages of 100-byte
    tuples, and two of 2,000 unique keys, one under a B+-tree and one
    under an AVL tree) and run conformance over every operator kind —
    all four join algorithms resident and spilled, planned pipelines
    (filters, multi-join, aggregation, distinct, order-by, set
    operations, index probes) — plus the optimality lint on every
    planned case and selectivity checks.

    @raise Invalid_argument if [tolerance_scale <= 0]: a band scaled by
    zero or less is empty, and every case would report divergence. *)

val case_diags : case -> Mmdb_util.Diag.t list
val suite_diags : case list -> Mmdb_util.Diag.t list

val suite_ok : case list -> bool
(** No error-severity diagnostics anywhere in the suite. *)

val code_catalogue : (string * string) list
(** Every MODEL code with a one-line description. *)
