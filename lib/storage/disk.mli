(** Simulated disk: a page store with charged, counted I/O.

    The paper's evaluation charges 10 ms per sequential and 25 ms per random
    page I/O (Table 2) and counts page accesses; this module reproduces that
    cost structure over an in-memory page table.  Operators declare whether
    each access is sequential or random — exactly how the paper's formulas
    assign [IOseq] vs [IOrand] — because the 1984 distinction is about arm
    movement that a simulator cannot infer from page numbers alone.

    Pages survive simulated crashes: a crash discards volatile state (buffer
    pools, in-memory indexes), never disk contents.

    {2 Faults and checksums}

    The disk holds an out-of-band CRC-32 of a page's intended image (the
    analogue of per-sector CRCs a controller writes alongside data) only
    where the stored image differs from it: a write that an injected
    fault tore or rotted.  Every other page was stored as meant, so the
    CRC of what is stored is the sum; a clean write drops any sum the page
    had, and neither allocation nor a clean write computes a CRC.  When a
    {!Mmdb_fault.Fault_plan} is armed, reads verify the copy they return
    against that sum: a transient in-flight bit flip is detected and
    repaired by a bounded number of rereads (each waiting out a backoff on
    the simulated clock); a page corrupted on the medium stays bad and
    surfaces as {!Mmdb_fault.Fault.Unrecoverable} (FAULT011) once the retry
    budget is exhausted.  Transient I/O errors delay and re-charge the
    access.  Without an armed plan the read/write paths charge exactly
    what the seed charged.

    Lookup and size errors are typed: unknown pages raise
    {!Mmdb_fault.Fault.Io_error} with code FAULT005, size mismatches
    FAULT006 — never bare [Invalid_argument]. *)

type t

type io_mode = Seq | Rand
(** How an access is charged: [Seq] = IOseq, [Rand] = IOrand. *)

val create : env:Env.t -> page_size:int -> t
(** A disk with no allocated pages and no armed fault plan (behaviour
    identical to the unfaulted seed). *)

val env : t -> Env.t
val page_size : t -> int

val arm : t -> Mmdb_fault.Fault_plan.t -> unit
(** Arm a fault-injection plan; subsequent reads are checksum-verified
    and rule-selected faults fire at the disk's sites. *)

val faults : t -> Mmdb_fault.Fault_plan.t
(** The armed plan ({!Mmdb_fault.Fault_plan.none} when unfaulted) —
    shared with the buffer pool so frame-level faults use the same
    seeded stream and tally. *)

val page_count : t -> int
(** Number of currently allocated pages. *)

val alloc : t -> int
(** [alloc d] allocates a zeroed page and returns its id.  Allocation
    itself charges no I/O (the write that follows does) and computes no
    checksum. *)

val read : t -> mode:io_mode -> int -> bytes
(** [read d ~mode pid] charges one I/O and returns a copy of the page.
    With faults armed the copy is checksum-verified (see above).
    @raise Mmdb_fault.Fault.Io_error (FAULT005) if [pid] was never
    allocated or was freed.
    @raise Mmdb_fault.Fault.Unrecoverable (FAULT011) if the stored page
    is corrupt beyond the retry budget.
    @raise Mmdb_overload.Overload.Shed (OVLD008) when a per-transaction
    retry budget installed on the armed plan runs dry mid-ride. *)

val write : t -> mode:io_mode -> int -> bytes -> unit
(** [write d ~mode pid page] charges one I/O and stores a copy.  Only a
    write that the armed plan tears or rots records the out-of-band
    checksum of [page]; any other write drops the page's sum.
    @raise Mmdb_fault.Fault.Io_error on unknown page (FAULT005), size
    mismatch (FAULT006), or exhausted transient-error retries
    (FAULT004).
    @raise Mmdb_overload.Overload.Shed (OVLD008) when a per-transaction
    retry budget installed on the armed plan runs dry mid-ride. *)

val free : t -> int -> unit
(** Release a page (e.g. temporary partition files after a join). *)

val read_nocharge : t -> int -> bytes
(** Uninstrumented, unchecked read for tests and recovery-inspection
    code paths. *)

val write_nocharge : t -> int -> bytes -> unit
(** Uninstrumented write, used when pre-loading workloads so that setup
    cost does not pollute an experiment's counters.  The page is stored
    as given, so its out-of-band sum is dropped. *)
