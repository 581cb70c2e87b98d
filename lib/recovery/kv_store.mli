(** The memory-resident database of Section 5: a fixed array of integer
    records (account balances), entirely in volatile main memory, with a
    page-structured snapshot on disk, fuzzy checkpointing (§5.3), a
    dirty-page table in stable memory (§5.5), crash, and log-driven
    recovery.

    WAL rule: the caller must flush the log before {!checkpoint} (the
    {!Db} facade and {!Recovery_manager} do), so a snapshot never holds an
    update whose log record is volatile. *)

type t

val create : ?faults:Mmdb_fault.Fault_plan.t ->
  ?recorder:Schedule.recorder -> nrecords:int -> records_per_page:int ->
  stable:Stable_memory.t -> unit -> t
(** All balances start at 0; the disk snapshot starts clean.  The dirty-page
    table lives in [stable] (it survives crashes).  A checkpoint write or
    recovery read of a page costs 10 ms.  With [faults] armed, snapshot pages
    carry out-of-band CRCs: checkpoint writes can be rotted by a
    [Snapshot]-site rule, and {!recover} detects (FAULT002) and rebuilds
    (FAULT009) damaged pages.  With [recorder], transactional accesses ({!get}
    / {!apply_update} called with [~txn]) emit domain-stamped Read/Write
    schedule events for {!Mmdb_verify.Schedule_check}. *)

val nrecords : t -> int
val npages : t -> int

val get : ?txn:int -> ?domain:int -> t -> int -> int
(** Current in-memory balance.  When [txn] is given (and a recorder is
    armed) the access is witnessed as a [Read] event stamped with
    [domain] (default 0).  @raise Invalid_argument on bad slot. *)

val snapshot_read : t -> int -> int
(** Degraded read-only service: the slot's value in the last checkpoint
    image.  The snapshot lives on the simulated disk and survives a
    crash, so this stays answerable while recovery replay is in flight —
    stale as of the last completed checkpoint sweep.
    @raise Invalid_argument on bad slot. *)

val apply_update :
  ?txn:int -> ?domain:int -> t -> lsn:int -> slot:int -> value:int -> unit
(** In-memory write; marks the slot's page dirty, recording [lsn] in the
    stable dirty-page table if it is the first update since the page's
    last checkpoint.  When [txn] is given the write is witnessed as a
    [Write] event stamped with [domain]. *)

type checkpoint_stats = { pages_flushed : int; duration : float }

val checkpoint : ?now:float -> ?deadline:float -> t -> checkpoint_stats
(** Fuzzy checkpoint: "data pages are periodically written to disk by a
    background process that sweeps through data buffers to find dirty
    pages."  Writes every dirty page (sorted page order) to the
    snapshot, clears its dirty-table entry, and reports cost (serial
    page writes).  When both [now] and [deadline] are given, the sweep
    stops before the page write that would complete after [deadline] —
    modelling a crash mid-checkpoint; unwritten pages keep their
    dirty-table entries so redo still covers them. *)

val dirty_pages : t -> int

val recovery_start_lsn : t -> int option
(** Minimum LSN in the stable dirty-page table — "the oldest entry in the
    table determines the point in the log from which recovery should
    commence."  [None] when no page has been dirtied since its last
    checkpoint (redo can be skipped entirely). *)

val crash : t -> unit
(** Lose volatile memory: balances are scrambled; the disk snapshot and
    the stable dirty-page table survive. *)

type recover_stats = {
  start_lsn : int;
  records_scanned : int;
  redo_applied : int;  (** total redo ops: local + cross-partition *)
  undo_applied : int;
  snapshot_pages_read : int;
  pages_rebuilt : int;  (** corrupt snapshot pages rebuilt from the log *)
  recovery_time : float;
      (** modelled cost ({!Mmdb_model.Recovery_model.replay_seconds}):
          snapshot/log reads and local applies divided by [workers],
          plus cross-partition command ops (priced serially), undo,
          and page write-back *)
  workers : int;  (** replay partitions used *)
  local_value_ops : int;  (** value (after-image) ops applied in-partition *)
  local_command_ops : int;  (** command ops whose record stayed in-partition *)
  barrier_ops : int;  (** ops of cross-partition command records *)
  barriers : int;  (** command records whose ops span partitions *)
  pages_written_back : int;  (** end-of-recovery re-checkpointed pages *)
  log_bytes_scanned : int;
  used_domains : bool;  (** real [Domain.spawn] workers ran the replay *)
}

exception Crashed_during_recovery
(** Raised when [crash_after_steps] expires.  The store's volatile state
    is mid-replay garbage; the durable state is valid (pages written
    back so far carry their advanced redo/undo floors).  Protocol: call
    {!crash}, then {!recover} again. *)

val recover :
  ?workers:int ->
  ?use_domains:bool ->
  ?crash_after_steps:int ->
  ?replay_recorder:Schedule.recorder ->
  t ->
  log:Log_record.t list ->
  recover_stats
(** Rebuild memory from the snapshot plus the durable [log] (LSN order):
    redo every eligible record from {!recovery_start_lsn} onward, then
    undo, in reverse log order, records of transactions with neither a
    commit nor an abort record in [log]; finally write every touched
    page back to the snapshot and reset the dirty-page table.

    Two forward passes read the log.  The analysis pass keeps one flat
    table from each transaction to its lowest LSN, or to "terminated"
    after its Commit or Abort (losers are those still open; the lowest
    loser LSN bounds undo), and counts each partition's ops above their
    page's redo gate to size the {!Replay} queues.  The redo/undo pass
    fills the plan and collects the loser records for undo.

    Redo is partitioned by page across [workers] (default 1) replay
    partitions ({!Replay}): per-page LSN gates make both value and
    non-idempotent command records safe to replay, and make the whole
    recovery restartable — if it crashes mid-way
    ({!Crashed_during_recovery}, injected via [crash_after_steps]: the
    unified count of redo applies + undo applies + write-back page
    writes), running it again from the surviving durable state is
    correct.  [use_domains] runs the partitions as real domains, spawned
    once for the whole replay (ignored when [crash_after_steps] or
    [replay_recorder] forces the deterministic scheduler); every
    statistic but [used_domains] is the same either way.  [replay_recorder] witnesses every replay write as
    domain-stamped Grant/Write/Release events for the race codes of
    {!Mmdb_verify.Schedule_check}.

    With faults armed, snapshot pages failing their CRC are reset and
    rebuilt by replaying the whole log for their slots (FAULT002 /
    FAULT009).

    @raise Crashed_during_recovery when [crash_after_steps] expires
    mid-replay (restart-crash testing). *)

val balances : t -> int array
(** Copy of the in-memory state (test oracle). *)
