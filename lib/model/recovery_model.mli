(** Analytic throughput model for Section 5: recovery in memory-resident
    databases.

    The paper's arithmetic: a "typical" transaction writes 400 bytes of log
    (40 begin/end + 360 old/new values); one 4096-byte log page writes in
    10 ms.  Conventional commit needs a log I/O per transaction (100 tps);
    group commit packs ~10 transactions per page (1000 tps); partitioning
    the log over [n] devices multiplies further; stable memory permits
    compressing to new-values-only (§5.4), roughly halving log volume. *)

type t = {
  begin_end_bytes : int;  (** per-transaction begin/end records *)
  old_values_bytes : int;  (** undo half of the update records *)
  new_values_bytes : int;  (** redo half *)
  log_page_bytes : int;
  page_write_time : float;  (** seconds per log-page write, no seek *)
}

val gray_banking : t
(** The paper's figures: 40 + 180 + 180 bytes, 4096-byte pages, 10 ms. *)

type log_terms = {
  begin_end : int;
  old_values : int;  (** 0 when compressed (§5.4 drops the undo half) *)
  new_values : int;
}
(** Per-term breakdown of the log volume; {!log_bytes_per_txn} is the
    field sum. *)

val log_terms : t -> compressed:bool -> log_terms

type tps_terms = {
  txns_per_io : float;  (** transactions committed per log-page write *)
  ios_per_second : float;  (** log-page writes per second, all devices *)
}
(** Per-term breakdown of a throughput figure;
    [tps = txns_per_io · ios_per_second]. *)

val tps_of_terms : tps_terms -> float
val group_commit_terms : t -> tps_terms
val partitioned_terms : t -> devices:int -> tps_terms
val stable_memory_terms : t -> devices:int -> compressed:bool -> tps_terms

val log_bytes_per_txn : t -> compressed:bool -> int
(** 400 bytes uncompressed; begin/end + new values only when
    [compressed] (§5.4 stable-memory compression). *)

val txns_per_page : t -> compressed:bool -> int
(** Transactions whose log records fit in one log page. *)

val conventional_tps : t -> float
(** One log I/O per commit: [1 / page_write_time] — the paper's 100. *)

val group_commit_tps : t -> float
(** [txns_per_page / page_write_time] — the paper's 1000. *)

val partitioned_tps : t -> devices:int -> float
(** Group commit with the log striped over [devices] drives. *)

val stable_memory_tps : t -> devices:int -> compressed:bool -> float
(** Stable memory: commits are instant, but steady-state throughput is
    still bounded by draining log pages to disk; compression raises the
    bound by packing more transactions per page. *)

val log_compression_ratio : t -> float
(** Disk-log bytes with compression / without — ~0.55 for the paper's
    figures ("approximately half"). *)

(** {1 Parallel-replay recovery time}

    Amdahl-style recovery-time model for partitioned parallel replay:
    snapshot/log reads and partition-local applies divide by the worker
    count; the write-back of recovered pages and the serial portions of
    replay (cross-partition command re-execution, undo) do not. *)

val value_apply_time : float
(** Seconds to re-install one value (after-image) record: a memory
    store, 1 µs. *)

val command_apply_time : float
(** Seconds to re-execute one command (operation) record: procedure
    re-execution, 50 µs — the adaptive-logging trade: ~50x slower to
    replay, ~7x smaller to log. *)

type replay_terms = {
  parallel_io : float;  (** snapshot + log-suffix reads, divisible by W *)
  parallel_apply : float;  (** partition-local redo applies *)
  serial_io : float;  (** end-of-recovery page write-back *)
  serial_apply : float;  (** barrier command replay + undo *)
  workers : int;
}
(** [replay_seconds = (parallel_io + parallel_apply)/workers
                      + serial_io + serial_apply]. *)

val replay_terms :
  page_io_time:float ->
  log_page_bytes:int ->
  workers:int ->
  snapshot_pages:int ->
  log_bytes:int ->
  local_value_ops:int ->
  local_command_ops:int ->
  serial_command_ops:int ->
  undo_ops:int ->
  writeback_pages:int ->
  replay_terms
(** Price a recovery run from its observable counters (the fields of
    [Kv_store.recover_stats]).  @raise Invalid_argument on
    [workers <= 0] or [log_page_bytes <= 0]. *)

val replay_seconds : replay_terms -> float

val value_bytes_per_txn : t -> updates_per_txn:int -> int
(** Wire bytes a value-logged transaction writes: begin/commit plus a
    60-byte update record per write. *)

val command_bytes_per_txn : t -> updates_per_txn:int -> int
(** Wire bytes a command-logged transaction writes: begin/commit plus a
    20-byte command header and 8 bytes per op. *)

val adaptive_command_wins :
  t -> workers:int -> updates_per_txn:int -> cross_partition:bool -> bool
(** The adaptive-logging rule: [true] when command logging's predicted
    per-transaction recovery cost (smaller log, slow serial replay when
    [cross_partition]) beats value logging's at [workers] replay
    partitions.  Cross-partition commands replay at the serial
    rendezvous, so the rule flips to value logging as [workers] grows. *)
