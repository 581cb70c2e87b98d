(** The main-memory database facade: tables, indexes, declarative queries
    through the Section 4 planner, and instrumentation.

    A database owns one simulated disk, one instrumentation environment,
    and a memory budget [|M|] in pages that every operator respects.  The
    query path exercises the whole stack the paper describes: storage
    pages, AVL/B+-tree indexes (Section 2), hash-based operators
    (Section 3), and selectivity-ordered planning (Section 4).  For the
    transactional/recovery side (Section 5) see {!Txn_db}. *)

type t

type index_kind = Mmdb_planner.Catalog.index_kind = Avl_index | Btree_index
(** Indexes live in the catalog entry of their table, so the planner and
    {!lookup} share them. *)

val create : ?page_size:int -> ?mem_pages:int -> unit -> t
(** Defaults: 4096-byte pages, 256 memory pages.  Costs are Table 2's. *)

val env : t -> Mmdb_storage.Env.t
val mem_pages : t -> int
val catalog : t -> Mmdb_planner.Catalog.t

val create_table : t -> name:string -> schema:Mmdb_storage.Schema.t -> unit
(** @raise Invalid_argument if the name is taken.
    @raise Mmdb_fault.Fault.Io_error from the storage layer when a
    fault plan is armed (registration touches pages). *)

val table_names : t -> string list

val insert : t -> table:string -> Mmdb_storage.Tuple.value list -> unit
(** Append a row (uncharged, as workload setup); maintains any indexes.
    @raise Not_found on unknown table.
    @raise Invalid_argument if the table has an index and already holds
    the row's key. *)

val insert_many : t -> table:string -> Mmdb_storage.Tuple.value list list ->
  unit
(** Bulk insert; refreshes catalog statistics once at the end.
    @raise Invalid_argument if the table has an index and a key is
    already present or repeats among the rows; no row is inserted. *)

val create_index : t -> table:string -> index_kind -> unit
(** Index the table on its schema key.  Existing rows are loaded.  An
    indexed table holds each key at most once.
    @raise Invalid_argument if an index of that kind already exists.
    @raise Invalid_argument if the rows hold a duplicate key. *)

val lookup : t -> table:string -> key:Mmdb_storage.Tuple.value ->
  Mmdb_storage.Tuple.value list option
(** Point lookup by key through {!Mmdb_planner.Catalog.lookup}, the probe
    the planner's index path uses: the best available index (AVL
    preferred when both exist, per Section 2 fully-resident results),
    else a scan.  @raise Invalid_argument on key type mismatch. *)

val range : t -> table:string -> lo:Mmdb_storage.Tuple.value ->
  hi:Mmdb_storage.Tuple.value -> Mmdb_storage.Tuple.value list list
(** Inclusive key-range query via an index (or scan fallback), ascending. *)

val query : t -> Mmdb_planner.Algebra.expr -> Mmdb_storage.Relation.t
(** Statically check ({!Mmdb_planner.Plan_check}), optimize, and execute.
    @raise Invalid_argument with the rendered diagnostics when the plan is
    ill-formed (use {!check} to inspect them structurally).
    @raise Mmdb_fault.Fault.Io_error and
    @raise Mmdb_fault.Fault.Unrecoverable from the storage layer when a
    fault plan is armed (execution reads pages). *)

val check : t -> Mmdb_planner.Algebra.expr -> Mmdb_util.Diag.t list
(** Static plan diagnostics against this database's catalog, without
    executing. *)

val audit : t -> (string * Mmdb_util.Diag.t list) list
(** Check every index of every table with {!Mmdb_verify.Audit.avl} or
    {!Mmdb_verify.Audit.btree}, each result named ["table.avl"] /
    ["table.btree"], sorted by table. *)

val sql : t -> string -> Mmdb_storage.Tuple.value list list
(** [sql db "SELECT dept, COUNT( * ) FROM emp GROUP BY dept"] — parse
    ({!Mmdb_planner.Sql}), plan, execute, decode, and free the result's
    pages.
    @raise Invalid_argument on parse errors. *)

val sql_explain : t -> string -> string
(** The plan for a SQL query. *)

type exec_result =
  | Rows of Mmdb_storage.Tuple.value list list
  | Affected of int

val execute : t -> string -> exec_result
(** [execute db stmt] runs a query {e or} DML statement:
    [INSERT INTO t VALUES (..)], [DELETE FROM t WHERE ..],
    [UPDATE t SET c = lit WHERE ..].  DML maintains indexes and refreshes
    optimizer statistics; DELETE/UPDATE rebuild the table (the
    memory-resident analogue of compaction).  A query's result pages are
    freed once its rows are decoded.
    @raise Invalid_argument on parse/arity errors, [Not_found] on unknown
    tables.
    @raise Invalid_argument if an [INSERT] or a key-changing [UPDATE]
    would put a key twice into a table with an index; the table is left
    unchanged. *)

val query_rows : t -> Mmdb_planner.Algebra.expr ->
  Mmdb_storage.Tuple.value list list
(** {!query} decoded as its root streams, so a point SELECT builds no
    relation; a blocking root's result is freed once decoded. *)

val explain : t -> Mmdb_planner.Algebra.expr -> string
(** The optimizer's plan for the expression. *)

val stats : t -> string
(** One-line simulated-time / counter summary since creation. *)

val save : t -> string -> unit
(** [save db path] writes the page size, the memory budget and every
    table (schema, rows, index kinds) to a single binary file.  The
    format is versioned and architecture-independent (fixed-width
    big-endian fields; tuple bytes are stored verbatim — they are
    already order-preserving encodings). *)

val load : string -> t
(** [load path] reconstructs a database saved with {!save} at its page
    size and memory budget: tables are bulk-loaded, declared indexes
    rebuilt, statistics recomputed.
    @raise Invalid_argument on a bad magic number, version, or truncated
    file. *)
