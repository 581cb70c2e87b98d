(** Table catalog: each table's relation, its indexes, and per-column
    statistics for selectivity estimation.

    The catalog is the one registry of a table's access paths: the
    planner asks it whether a key probe can replace a scan, and
    {!lookup} is the probe both the executor and [Db.lookup] use.

    Statistics describe the relation as of its last {!register} or
    {!refresh}.  [ntuples], [npages] and integer [min_int]/[max_int] are
    maintained incrementally, so re-registering a relation that only grew
    costs time in the appended rows.  [ndistinct] and [quantiles] need a
    scan and a sort; they are computed on the first {!stats} read after a
    change and cached until the next one. *)

type column_stats = {
  ndistinct : int;
  min_int : int option;  (** populated for integer columns *)
  max_int : int option;
  quantiles : int array option;
      (** equi-depth histogram cut points for integer columns: [k] sorted
          values splitting the column into [k+1] equal-count buckets;
          sharpens range selectivity on skewed data *)
}

type table_stats = {
  ntuples : int;
  npages : int;
  columns : (string * column_stats) list;
}

type index_kind = Avl_index | Btree_index

type index = Avl of Mmdb_index.Avl.t | Btree of Mmdb_index.Btree.t

val kind_of_index : index -> index_kind

val kind_name : index_kind -> string
(** ["avl"] or ["btree"]. *)

type t

val create : unit -> t

val register : t -> Mmdb_storage.Relation.t -> unit
(** Add (or replace) a table under its relation name.  Registering the
    relation already registered folds in only the tuples appended since
    (uncharged reads of the pages holding them).  Registering another
    relation under a taken name rebuilds the table's indexes over it.
    @raise Invalid_argument when a rebuilt index finds a duplicate key;
    the previous entry is then kept.
    @raise Mmdb_fault.Fault.Io_error from the storage layer when a fault
    plan is armed (the stats scan reads pages). *)

val find : t -> string -> Mmdb_storage.Relation.t
(** @raise Not_found on unknown table names. *)

val mem : t -> string -> bool
val names : t -> string list

val stats : t -> string -> table_stats
(** Equal to a from-scratch computation over the relation as of its last
    registration.  @raise Not_found on unknown table names.
    @raise Mmdb_fault.Fault.Io_error from the storage layer when a fault
    plan is armed (the first read after a change scans the pages). *)

val column_stats : t -> table:string -> column:string -> column_stats
(** @raise Not_found if either is unknown. *)

val int_bounds : t -> table:string -> column:string -> (int * int) option
(** [(min_int, max_int)] of an integer column without forcing the
    distinct counts; [None] for string or empty columns.
    @raise Not_found if either is unknown. *)

val refresh : t -> string -> unit
(** Update statistics after the relation grew ({!register} again).
    @raise Not_found on unknown table names. *)

val remove : t -> string -> unit
(** Forget a table (no-op when absent). *)

(** {1 Indexes}

    An indexed table holds each key at most once: both trees replace on
    an equal key, so a duplicate would make the index and the relation
    disagree. *)

val create_index : t -> string -> index_kind -> unit
(** Index the table on its schema key, loading the existing rows.
    @raise Invalid_argument if an index of that kind exists, or the rows
    hold a duplicate key.
    @raise Not_found on unknown table names. *)

val indexes : t -> string -> index list
(** The table's indexes in probe-preference order: AVL before B+-tree
    (Section 2: the AVL tree wins when it is memory-resident).
    @raise Not_found on unknown table names. *)

val index_kind : t -> string -> index_kind option
(** The kind {!lookup} probes, if the table has an index.
    @raise Not_found on unknown table names. *)

val lookup : t -> string -> bytes -> bytes option
(** [lookup t table key] probes the preferred index for the tuple with
    the encoded [key] ({!Mmdb_storage.Tuple.encode_key}); without an
    index it scans, charging one comparison per tuple.
    @raise Not_found on unknown table names. *)

val insert : t -> string -> bytes list -> unit
(** Append encoded tuples to the table (uncharged) and to its indexes.
    On an indexed table the whole batch is checked first.
    @raise Invalid_argument if a key is already present or repeats in
    the batch; nothing is appended then.
    @raise Not_found on unknown table names. *)
