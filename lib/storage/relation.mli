(** Relations: named sequences of tuple pages on a simulated disk.

    A relation owns an ordered list of disk pages plus a tail page being
    filled, a pooled {!Disk.frame} that {!seal} recycles.  A full tail
    spills to disk (the disk stores a copy, so the tail is zeroed and
    refilled); whether that spill is charged depends on the append
    function used, so workload setup can be free while operator output is
    charged — mirroring the paper's convention of "ignoring the cost of
    reading the relations initially and writing the result of the join". *)

type t

val create : disk:Disk.t -> name:string -> schema:Schema.t -> t

val name : t -> string
val schema : t -> Schema.t
val disk : t -> Disk.t
val env : t -> Env.t

val ntuples : t -> int
(** [||R||] — total tuples appended (sealed or not). *)

val generation : t -> int
(** Bumped by {!free_pages}: while it is unchanged the relation has only
    grown, so its first tuples are the ones seen before. *)

val npages : t -> int
(** [|R|] — pages on disk after {!seal} (includes a partial tail page). *)

val tuples_per_page : t -> int

val append : t -> bytes -> unit
(** Charged append: a page spill costs one write in the relation's write
    mode (sequential unless changed with {!set_write_mode}).
    @raise Mmdb_fault.Fault.Io_error when an armed fault plan makes the
    spill write exhaust its retry budget. *)

val set_write_mode : t -> Disk.io_mode -> unit
(** How charged spills are priced.  Partitioning with many output buffers
    writes randomly (Section 3's [IOrand] terms); the default is [Seq]. *)

val append_nocharge : t -> bytes -> unit
(** Free append for workload setup. *)

val seal : t -> unit
(** Flush the partial tail page (charged variant if any charged append has
    occurred, free otherwise).  Idempotent; appends may resume after, and
    refill that partial page: the next seal rewrites the same page id, so
    alternating single appends and seals do not grow {!npages} past
    [⌈ntuples / tuples_per_page⌉]. *)

val page_ids : t -> int array
(** Disk page ids in relation order.  Call {!seal} first if a partial tail
    page must be included. *)

val iter_tuples : ?mode:Disk.io_mode -> t -> (bytes -> unit) -> unit
(** [iter_tuples t f] seals then reads each page in order, charging one
    I/O per page ([mode] defaults to [Seq]) and nothing per tuple, and
    hands [f] a copy of each tuple, taken as {!Disk.iter} does.
    @raise Mmdb_fault.Fault.Io_error and
    @raise Mmdb_fault.Fault.Unrecoverable from the read path when a fault
    plan is armed (transient failures past the retry budget, or detected
    corruption with no redundancy to rebuild from). *)

val iter_tuples_nocharge : t -> (bytes -> unit) -> unit

val iter_tuples_from_nocharge : t -> start:int -> (bytes -> unit) -> unit
(** [iter_tuples_from_nocharge t ~start f] visits the tuples after the
    first [start], in order, reading only the pages that hold them. *)

val of_tuples : disk:Disk.t -> name:string -> schema:Schema.t ->
  bytes list -> t
(** Bulk, uncharged load. *)

val with_schema : t -> Schema.t -> t
(** [with_schema t schema] is a read-only view of [t]'s pages under a
    different schema of the same tuple width (e.g. re-keyed with
    {!Schema.with_key} so a join can target another column).  The view
    shares pages with [t]; appending through either afterwards is
    unsupported.  Seals [t] first.
    @raise Invalid_argument on a tuple-width mismatch. *)

val to_list : t -> bytes list
(** Uncharged full materialisation (test helper). *)

val free_pages : t -> unit
(** Release all disk pages (temporary relations: runs, partitions). *)
