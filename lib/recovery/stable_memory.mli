(** Battery-backed stable main memory (Section 5.4).

    "We assume that a small portion of memory can be made stable by
    providing it with a back-up battery power supply ... too expensive to
    be used for all of real memory."  A bounded byte budget that survives
    simulated crashes: it holds the in-memory log tail (commit point for
    the stable-log strategy) and the dirty-page table of Section 5.5. *)

type t

val create : capacity_bytes:int -> t
(** @raise Invalid_argument if [capacity_bytes <= 0]. *)

val capacity : t -> int
val available : t -> int

val put_records : t -> Log_record.t list -> bytes:int -> bool
(** [put_records sm records ~bytes] stores log records if [bytes] fit;
    [false] when full (the caller must drain first). *)

val peek_batch : t -> (Log_record.t list * int) option
(** Oldest batch (records, stable bytes) without removing it — the
    drainer packs disk pages by its own (compressed) size measure. *)

val drop_batch : t -> unit
(** Remove the oldest batch.
    @raise Mmdb_fault.Fault.Io_error (FAULT010) when empty. *)

val records : t -> Log_record.t list
(** Current contents, oldest first (what survives a crash). *)

val drop_newest : t -> batches:int -> unit
(** Lose the newest [batches] batches, as a battery-droop crash does. *)

val table_put : t -> key:int -> value:int -> unit
(** Dirty-page-table slot (Section 5.5): record the log LSN of the first
    update to a page since its last checkpoint.  Keys are page numbers;
    the table occupies a fixed side region and does not count against the
    record budget. *)

val table_get : t -> key:int -> int option
val table_remove : t -> key:int -> unit
val table_fold : t -> init:'a -> f:('a -> key:int -> value:int -> 'a) -> 'a
val table_clear : t -> unit
