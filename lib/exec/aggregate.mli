(** Aggregate functions with grouping (Section 3.9).

    "For aggregate functions in which related tuples must be grouped
    together ... if there is enough memory to hold the result relation,
    the fastest algorithm will be a one pass hashing algorithm in which
    each incoming tuple is hashed on the grouping attribute.  If there is
    not enough memory ... a variant of the hybrid-hash algorithm appears
    fastest."  {!hybrid} is both: it runs in one pass when the groups
    fit.  Grouping is on the input schema's key column.

    "Projection with duplicate elimination is very similar in nature to
    the aggregate function operation (in projection we are grouping
    identical tuples)": {!distinct} and {!set_op} are the same kernel,
    grouping on the whole tuple ({!whole}) with no aggregate columns. *)

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

val whole : Mmdb_storage.Schema.t -> Mmdb_storage.Schema.t
(** One fixed-string column ["tuple"] spanning the schema's tuple width,
    and its key: a view under which equal tuples hash and compare alike
    whatever the schema's own key. *)

type source =
  | Relation of Mmdb_storage.Relation.t
  | Stream of {
      disk : Mmdb_storage.Disk.t;
      schema : Mmdb_storage.Schema.t;
      push : (bytes -> unit) -> unit;
          (** pushes every input tuple into its sink, once *)
    }
      (** An input that no relation holds, such as a join's output as it
          is produced; a spilling aggregation stores it on [disk]
          (uncharged) before it splits it. *)

val partitions : mem_pages:int -> fudge:float -> groups:int ->
  tuples_per_page:int -> int
(** The hybrid join's B for a group table of [groups] output rows at
    [tuples_per_page] a page: 0 when the groups fit in [mem_pages]. *)

val hybrid : mem_pages:int -> fudge:float -> groups:int ->
  source -> spec list -> Mmdb_storage.Relation.t
(** Hash aggregation sized by [groups], the expected number of groups
    (the optimizer passes the catalog's distinct count).  When the
    groups fit ({!partitions} is 0; [mem_pages = max_int] always fits)
    it is the one-pass hash aggregation: every input tuple is hashed on
    the grouping attribute once, into one in-memory table of groups, as
    it arrives; no partition is written.  Otherwise it is the hybrid
    variant for results larger than memory: split the input by
    group-key hash so that a fraction q of the groups stays resident and
    each of the B disk partitions' groups fit, then aggregate each
    partition in one pass.  The input scan is free (first read); result
    writes are charged.  An estimate below the true count only makes the
    group table outgrow [mem_pages]; the result is the same. *)

type set_op = Union | Intersect | Except

val distinct : mem_pages:int -> fudge:float -> groups:int -> source ->
  Mmdb_storage.Relation.t
(** Duplicate elimination: {!hybrid} grouping on the whole tuple, sized
    by [groups] (the expected number of distinct tuples) and with no
    aggregate columns.  The result has the source's schema. *)

val set_op : set_op -> mem_pages:int -> fudge:float -> groups:int ->
  source -> source -> Mmdb_storage.Relation.t
(** Set-semantics union, intersection or difference (left minus right):
    one whole-tuple grouping of both inputs, sized by [groups] (the
    expected distinct tuples of both), that keeps in each group a mask of
    the sides its tuples came from and emits the groups whose mask the
    operation wants.  When spilling, both inputs are split on the same
    hash, so equal tuples meet in the same partition whatever each
    schema's key.  The result has the left schema.
    @raise Invalid_argument when the tuple widths differ. *)

val sort_based : mem_pages:int -> Mmdb_storage.Relation.t -> spec list ->
  Mmdb_storage.Relation.t
(** The disk-era baseline the paper's hash recommendation displaces:
    externally sort on the grouping attribute, then aggregate adjacent
    runs of equal keys in one scan.  Pays the full
    [n·log n·(comp+swap)] sort plus run I/O. *)
