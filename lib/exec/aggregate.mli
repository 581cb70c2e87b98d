(** Aggregate functions with grouping (Section 3.9).

    "For aggregate functions in which related tuples must be grouped
    together ... if there is enough memory to hold the result relation,
    the fastest algorithm will be a one pass hashing algorithm in which
    each incoming tuple is hashed on the grouping attribute.  If there is
    not enough memory ... a variant of the hybrid-hash algorithm appears
    fastest."  Both variants are implemented; grouping is on the input
    schema's key column. *)

type spec =
  | Count
  | Sum of string  (** column name *)
  | Min of string
  | Max of string
  | Avg of string  (** integer average, rounded toward zero *)

val result_schema : Mmdb_storage.Schema.t -> spec list -> Mmdb_storage.Schema.t
(** Group column (a copy of the input key column) followed by one 8-byte
    integer column per aggregate, named ["count"], ["sum_c"], ["min_c"],
    ["max_c"], ["avg_c"]. *)

val one_pass : Mmdb_storage.Relation.t -> spec list -> Mmdb_storage.Relation.t
(** One-pass hash aggregation: every input tuple is hashed on the grouping
    attribute into an in-memory table of groups; assumes the result fits
    in memory.  Input scan is free (first read); result writes are
    charged. *)

val hybrid : mem_pages:int -> fudge:float ->
  Mmdb_storage.Relation.t -> spec list -> Mmdb_storage.Relation.t
(** Hybrid-hash aggregation for results larger than memory: partition the
    input by group-key hash into partitions whose group tables fit, then
    aggregate each partition in one pass.  Degenerates to {!one_pass} when
    everything fits. *)

val sort_based : mem_pages:int -> Mmdb_storage.Relation.t -> spec list ->
  Mmdb_storage.Relation.t
(** The disk-era baseline the paper's hash recommendation displaces:
    externally sort on the grouping attribute, then aggregate adjacent
    runs of equal keys in one scan.  Pays the full
    [n·log n·(comp+swap)] sort plus run I/O. *)

val group_count : Mmdb_storage.Relation.t -> int
(** Distinct key values (uncharged; sizing helper for planners/tests). *)
