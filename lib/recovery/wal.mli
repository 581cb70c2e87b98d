(** Write-ahead log manager implementing Section 5.2's commit strategies.

    - {b Conventional}: every transaction's commit forces its own log-page
      write — at most [1 / page_write_time] = 100 commits/s.
    - {b Group commit}: commit records accumulate in the log buffer; one
      page write commits the whole group (~10 transactions/page → 1000
      commits/s).  "As long as records are sequentially added to the log,
      a pre-committed transaction will have its commit record on disk
      before its dependent transactions."
    - {b Partitioned}: the log is striped over several devices; a commit
      group's write is held until every group it depends on (via the lock
      manager's pre-commit dependencies) is durable — the paper's
      topological ordering of log pages.
    - {b Stable}: commit is instant once the transaction's records are in
      battery-backed stable memory; a background drain writes
      new-values-only pages to disk (Section 5.4's compression).

    Simplification (documented in DESIGN.md): a drained stable-memory page
    is treated as durable from the moment the drain is issued — a
    battery-backed controller finishes in-flight writes across a crash. *)

type strategy =
  | Conventional
  | Group_commit
  | Partitioned of { devices : int }
  | Stable of { devices : int; capacity_bytes : int; compressed : bool }

type t

type ticket
(** A pending commit: resolved once the commit record is durable. *)

exception Unresolved_ticket of { sim : string; txn : int }
(** A commit ticket survived a full flush unresolved — the flush
    contract is broken.  Raised by the simulators ({!Tps_sim},
    {!Mvcc_sim}) rather than a stringly [Failure], with a printer that
    names the simulator and the transaction. *)

val create : ?page_write_time:float -> ?page_bytes:int ->
  ?faults:Mmdb_fault.Fault_plan.t ->
  ?breaker:Mmdb_overload.Overload.Breaker.t -> ?strict_page_order:bool ->
  clock:Mmdb_storage.Sim_clock.t -> strategy -> t
(** [faults] arms a fault-injection plan shared by every log device:
    pages then carry checksummed physical images, and
    {!surviving_records} models torn writes, read/rest bit flips, and
    stable-memory battery droop at crash time.  Without it, behaviour is
    identical to the unfaulted seed.  [breaker] attaches a circuit
    breaker fed by every device (injected transients are failures,
    clean faulted-path writes successes); it never blocks the log
    itself — see {!Log_device.create}.

    [strict_page_order] (default [false]) chains a page that continues a
    straddling transaction behind the completion of the page holding its
    earlier records.  Required whenever a crash can land mid-page-write
    ({!Recovery_manager} enables it for every [crash_at] run and every
    armed fault plan): otherwise a straddler's
    commit record can become durable on an idle device while its update
    records are still in flight on a busier one.  The default preserves
    the seed's fully-parallel partitioned timing, which is safe when
    crashes only land at quiesce points. *)

val strategy : t -> strategy

val commit_txn : t -> at:float -> txn:int -> deps:int list ->
  Log_record.t list -> ticket
(** [commit_txn wal ~at ~txn ~deps records] logs a finished transaction
    (its whole record list, commit/abort record last) at simulated time
    [at].  [deps] are the pre-committed transactions it read from (lock
    manager grants); their commit groups must be durable first.
    Transactions must be submitted in nondecreasing [at] order.
    @raise Mmdb_fault.Fault.Io_error from the log device when a fault
    plan is armed and a page write exhausts the retry budget.
    @raise Mmdb_overload.Overload.Shed (OVLD008) when a per-transaction
    retry budget installed on the armed plan runs dry mid-ride. *)

val log_control : t -> at:float -> Log_record.t list -> unit
(** Append non-transactional records (checkpoint brackets) to the log
    stream without a commit ticket.  They ride the open buffer page (or
    stable memory) and become durable with the next flush or page fill. *)

val ticket_txn : ticket -> int

val ticket_completion : ticket -> float option
(** [None] while the commit record sits in a volatile buffer page that has
    not been written (group commit waiting to fill). *)

val flush : t -> at:float -> float
(** Force the open buffer page (and, for [Stable], the stable-memory
    backlog) to disk; returns the time everything issued so far is
    durable.  Resolves outstanding tickets. *)

val quiesce_time : t -> float
(** Completion time of every write scheduled so far (max over devices).
    A crash at or after this time loses only the never-scheduled buffer
    tail — the canonical group-commit loss scenario. *)

val pages_written : t -> int
val disk_bytes_written : t -> int
(** Log bytes that reached disk (post-compression for [Stable]). *)

val durable_records : t -> at:float -> Log_record.t list
(** What a crash at [at] leaves readable: completed device pages, plus
    stable-memory contents for [Stable]. *)

val all_records : t -> Log_record.t list
(** Everything submitted, including still-buffered records (test oracle). *)

val faults : t -> Mmdb_fault.Fault_plan.t
(** The armed plan ({!Mmdb_fault.Fault_plan.none} when unfaulted). *)

val page_spans : t -> (float * float) list
(** [(start, completion)] of every log-page write issued so far, sorted —
    the torture harness crashes inside these windows to exercise
    mid-page-write recovery. *)

val surviving_records : t -> at:float -> Log_record.t list
(** What recovery reads after a crash at [at].  Equal to
    {!durable_records} when no fault plan is armed.  With faults: device
    pages are decoded through their checksummed images (torn in-flight
    pages survive as a valid prefix, transient read flips are repaired
    by reread, at-rest damage truncates at the last valid record), and a
    battery-droop rule drops the newest stable-memory batches
    (FAULT007) before the merge. *)

val crash : t -> at:float -> Log_record.t list
(** A crash at [at]: returns {!surviving_records} at [at] and makes it
    what the log holds from then on.  The open buffer page, every page
    write not durable by then and the stable-memory batches a battery
    droop lost never become durable later; a torn page keeps only its
    surviving prefix ({!Log_device.crash}). *)
