(** Aggregate functions with grouping (Section 3.9).

    "For aggregate functions in which related tuples must be grouped
    together ... if there is enough memory to hold the result relation,
    the fastest algorithm will be a one pass hashing algorithm in which
    each incoming tuple is hashed on the grouping attribute.  If there is
    not enough memory ... a variant of the hybrid-hash algorithm appears
    fastest."  {!hybrid} is both: it runs in one pass when the input
    fits.  Grouping is on the input schema's key column. *)

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

val hybrid : mem_pages:int -> fudge:float ->
  Mmdb_storage.Relation.t -> spec list -> Mmdb_storage.Relation.t
(** Hybrid-hash aggregation for results larger than memory: partition the
    input by group-key hash into partitions whose group tables fit, then
    aggregate each partition in one pass.  When the input fits
    ([mem_pages] at least its pages times [fudge]; [max_int] always
    fits) it is the one-pass hash aggregation: every tuple is hashed on
    the grouping attribute into one in-memory table of groups.  The
    input scan is free (first read); result writes are charged. *)

val sort_based : mem_pages:int -> Mmdb_storage.Relation.t -> spec list ->
  Mmdb_storage.Relation.t
(** The disk-era baseline the paper's hash recommendation displaces:
    externally sort on the grouping attribute, then aggregate adjacent
    runs of equal keys in one scan.  Pays the full
    [n·log n·(comp+swap)] sort plus run I/O. *)
