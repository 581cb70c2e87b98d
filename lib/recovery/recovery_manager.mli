(** End-to-end crash/recovery driver (Sections 5.3-5.5) over {!Txn},
    the transaction kernel.

    Runs a banking workload through the kernel (each arrival one
    {!Txn.run}, value- or command-logged by the choice below), with a
    {!Txn.checkpoint} every [checkpoint_every] transactions, then
    {!Txn.crash} and {!Txn.recover}, the path [Txn_db] runs too.  The
    driver keeps the workload, the logging choice, where the crash lands
    and the audit: the recovered state must equal a golden replay of
    exactly the durably committed transactions.

    Crashes land at a transaction boundary ([crash_after]) or at an
    arbitrary simulated instant ([crash_at]): mid-drain, mid-log-page
    write or mid-checkpoint.  An armed fault plan also models torn
    writes, bit flips, transient I/O errors, snapshot rot and
    stable-memory battery droop; the outcome then reports the fault
    tally and a durability audit of acknowledged commits. *)

type logging_mode =
  | Value_logging  (** after-image update records: big log, cheap replay *)
  | Command_logging
      (** one operation record per transaction: ~7x smaller log, replay
          re-executes the deltas (50x slower per op).  {!Replay} splits a
          command that spans replay partitions by partition, so its ops
          replay in parallel; only {!Mmdb_model.Recovery_model} prices
          such ops serially. *)
  | Adaptive_logging
      (** per-transaction choice by
          {!Mmdb_model.Recovery_model.adaptive_command_wins}:
          cross-partition transactions flip to value records as the
          worker count grows *)

type replay_config = {
  workers : int;  (** replay partitions (>= 1) for {!Kv_store.recover} *)
  use_domains : bool;
      (** run partitions as real [Domain.spawn] workers (OCaml 5;
          ignored when [crash_steps] or [record_replay] needs the
          deterministic scheduler) *)
  logging : logging_mode;
  crash_steps : int option;
      (** crash recovery itself after this many replay steps, then
          restart it once from the surviving durable state (FAULT012) *)
  record_replay : bool;
      (** capture the replay's domain-stamped Grant/Write/Release trace
          in [replay_events] for the race codes of
          {!Mmdb_verify.Schedule_check} *)
}

val default_replay : replay_config
(** 1 worker, simulated scheduler, value logging, no mid-recovery
    crash, no trace. *)

type config = {
  nrecords : int;
  records_per_page : int;
  updates_per_txn : int;
  n_txns : int;
  checkpoint_every : int option;  (** transactions between checkpoints *)
  strategy : Wal.strategy;
  crash_after : int option;
      (** crash right after this many submissions (the open log buffer is
          lost); [None] = run to completion, flush, then crash *)
  crash_at : float option;
      (** crash at this absolute simulated time, taking precedence over
          [crash_after]'s quiesce behaviour: device writes still in
          flight are lost (or torn, under a torn-write rule); it is
          every checkpoint's deadline ({!Txn.checkpoint}) *)
  faults : Mmdb_fault.Fault_plan.rule list;
      (** fault-injection rules, armed with a plan seeded by [seed] *)
  seed : int;
  replay : replay_config;
}

val default_config : config
(** 500 accounts, 20 records/page, 6 updates/txn, 2000 transactions,
    checkpoint every 500, group commit, crash at the end, no faults,
    seed 7, {!default_replay}. *)

type outcome = {
  durably_committed : int;
      (** transactions whose commit records survived the crash *)
  submitted : int;
  acked_committed : int;
      (** transactions acknowledged committed before the crash (commit
          ticket resolved at or before crash time) *)
  acked_lost : int;
      (** acknowledged transactions missing after recovery — nonzero
          only under stable-memory battery droop (FAULT007) *)
  durability_ok : bool;  (** [acked_lost = 0] *)
  consistent : bool;
      (** recovered state equals the golden replay of committed txns *)
  money_conserved : bool;  (** balances still sum to zero *)
  recover_stats : Kv_store.recover_stats;
  recovery_attempts : int;
      (** 1, or 2 when [replay.crash_steps] fired mid-recovery and the
          restarted recovery completed *)
  command_txns : int;
      (** transactions logged as command records (logging-mode choice) *)
  replay_events : Schedule.event list;
      (** the replay schedule trace; [[]] unless [replay.record_replay] *)
  checkpoint_pages : int;
  log_disk_bytes : int;
  log_records : Log_record.t list;
      (** everything submitted to the WAL, in order (audit input) *)
  durable_log : Log_record.t list;
      (** what survived the crash — a possibly truncated prefix *)
  page_spans : (float * float) list;
      (** (start, completion) of every log-page write — crash-point
          candidates for the torture harness *)
  fault_tally : Mmdb_fault.Fault.tally;
  fault_events : (string * int) list;
      (** noted fault events grouped by FAULT code *)
}

val run : config -> outcome
(** Drive the whole workload → crash → recover cycle described by
    [config].  When [replay.crash_steps] fires mid-recovery, {!Txn.recover}
    notes FAULT012 and recovers again ([recovery_attempts = 2]).
    @raise Mmdb_fault.Fault.Io_error from the log or snapshot device
    when the armed fault plan exhausts the retry budget. *)
