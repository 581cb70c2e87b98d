(** One sequential log device.

    A log page write occupies the device for [page_write_time] (the
    paper's 10 ms for a 4096-byte page with no seek).  Writes queue:
    a write issued at time [t] starts at [max t busy_until] and the device
    is busy until it completes.  Completed pages are durable; a crash at
    time [T] preserves exactly the pages whose write completed by [T],
    and the protected (battery-backed) pages queued by [T], even those
    still waiting behind a busy device. *)

type t

val create : ?page_write_time:float -> ?page_bytes:int ->
  ?faults:Mmdb_fault.Fault_plan.t ->
  ?breaker:Mmdb_overload.Overload.Breaker.t ->
  clock:Mmdb_storage.Sim_clock.t -> unit -> t
(** Defaults: 10 ms, 4096 bytes, no faults.  With [faults] armed, every
    page also stores a physical image (checksummed per record, see
    {!Log_record.encode}) and write/read faults fire at the device.
    An attached [breaker] is fed device health (injected transients are
    failures, clean faulted-path writes successes) but never blocks the
    device itself — shedding is the service layer's decision. *)

val write_page : t -> ?protected:bool -> ?compressed:bool -> at:float ->
  Log_record.t list -> bytes:int -> float
(** [write_page d ~at records ~bytes] schedules a page write issued at
    simulated time [at]; returns the completion time.  [bytes] is the
    payload size (tracked for the log-size experiments; must not exceed
    the page size).  [protected] marks a battery-backed write, durable
    from issue rather than completion (the stable-drain simplification
    documented in DESIGN.md); [compressed] selects the record encoding
    used for the page image.
    @raise Mmdb_fault.Fault.Io_error (FAULT004) when an injected
    transient error outlives the retry budget.
    @raise Mmdb_overload.Overload.Shed (OVLD008) when a per-transaction
    retry budget installed on the armed plan runs dry mid-ride. *)

val busy_until : t -> float
(** Completion time of the last scheduled write (0 if idle since start). *)

val pages_written : t -> int
val bytes_written : t -> int

val durable_pages : t -> at:float -> (float * Log_record.t list) list
(** Durable pages with their completion timestamps, oldest first — the
    fragments that {!Log_merge} recombines per Section 5.2. *)

val page_spans : t -> (float * float) list
(** [(start, completion)] of every page written, oldest first — the
    torture harness derives mid-page-write crash points from these. *)

val surviving_pages : t -> at:float -> (float * Log_record.t list) list
(** What recovery actually reads after a crash at [at].  Without an
    armed fault plan this is exactly {!durable_pages}.  With faults:
    durable page images are decoded record by record (transient read
    flips are detected by CRC and repaired by reread; at-rest damage
    truncates the page at its last valid record, FAULT011), and the page
    {e in flight} at the crash survives as a checksum-valid prefix when
    a torn-write rule is armed (FAULT001/FAULT008) instead of vanishing
    wholesale. *)

val crash : t -> at:float -> (float * Log_record.t list) list
(** A crash at [at]: returns {!surviving_pages} at [at] and makes it what
    the device holds from then on.  The device stops, a page that did not
    survive never becomes durable later, and a torn page keeps only its
    surviving prefix. *)
