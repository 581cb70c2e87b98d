type t = {
  begin_end_bytes : int;
  old_values_bytes : int;
  new_values_bytes : int;
  log_page_bytes : int;
  page_write_time : float;
}

let gray_banking =
  {
    begin_end_bytes = 40;
    old_values_bytes = 180;
    new_values_bytes = 180;
    log_page_bytes = 4096;
    page_write_time = 10e-3;
  }

type log_terms = {
  begin_end : int;
  old_values : int;
  new_values : int;
}

let log_terms t ~compressed =
  {
    begin_end = t.begin_end_bytes;
    old_values = (if compressed then 0 else t.old_values_bytes);
    new_values = t.new_values_bytes;
  }

let log_bytes_per_txn t ~compressed =
  let lt = log_terms t ~compressed in
  lt.begin_end + lt.old_values + lt.new_values

let txns_per_page t ~compressed =
  max 1 (t.log_page_bytes / log_bytes_per_txn t ~compressed)

type tps_terms = {
  txns_per_io : float;  (** transactions committed per log-page write *)
  ios_per_second : float;  (** log-page writes per second, all devices *)
}

let tps_of_terms terms = terms.txns_per_io *. terms.ios_per_second

let conventional_terms t =
  { txns_per_io = 1.0; ios_per_second = 1.0 /. t.page_write_time }

let conventional_tps t = tps_of_terms (conventional_terms t)

let group_commit_tps t =
  float_of_int (txns_per_page t ~compressed:false) /. t.page_write_time

let partitioned_tps t ~devices =
  if devices <= 0 then invalid_arg "Recovery_model.partitioned_tps: devices";
  float_of_int devices *. group_commit_tps t

let stable_memory_tps t ~devices ~compressed =
  if devices <= 0 then invalid_arg "Recovery_model.stable_memory_tps: devices";
  float_of_int (devices * txns_per_page t ~compressed) /. t.page_write_time

let log_compression_ratio t =
  float_of_int (log_bytes_per_txn t ~compressed:true)
  /. float_of_int (log_bytes_per_txn t ~compressed:false)

(* ---- Parallel-replay recovery time (PR 8) ---------------------------- *)

let value_apply_time = 1e-6
let command_apply_time = 50e-6

type replay_terms = {
  parallel_io : float;
  parallel_apply : float;
  serial_io : float;
  serial_apply : float;
  workers : int;
}

let replay_terms ~page_io_time ~log_page_bytes ~workers ~snapshot_pages
    ~log_bytes ~local_value_ops ~local_command_ops ~serial_command_ops
    ~undo_ops ~writeback_pages =
  if workers <= 0 then invalid_arg "Recovery_model.replay_terms: workers";
  if log_page_bytes <= 0 then
    invalid_arg "Recovery_model.replay_terms: log_page_bytes";
  let log_pages = (log_bytes + log_page_bytes - 1) / log_page_bytes in
  {
    parallel_io = float_of_int (snapshot_pages + log_pages) *. page_io_time;
    parallel_apply =
      (float_of_int local_value_ops *. value_apply_time)
      +. (float_of_int local_command_ops *. command_apply_time);
    serial_io = float_of_int writeback_pages *. page_io_time;
    serial_apply =
      (float_of_int serial_command_ops *. command_apply_time)
      +. (float_of_int undo_ops *. value_apply_time);
    workers;
  }

let replay_seconds rt =
  ((rt.parallel_io +. rt.parallel_apply) /. float_of_int rt.workers)
  +. rt.serial_io +. rt.serial_apply

(* The wire sizes actually paid by the two logging modes (matching
   Log_record.size_bytes): a value-logged transaction writes
   begin/commit (2 x 20) plus 60 bytes per update; a command-logged
   transaction writes begin/commit plus one 20-byte command header and
   8 bytes per op. *)
let value_bytes_per_txn t ~updates_per_txn =
  t.begin_end_bytes + (60 * updates_per_txn)

let command_bytes_per_txn t ~updates_per_txn =
  t.begin_end_bytes + 20 + (8 * updates_per_txn)

(* Adaptive-logging decision rule (Yao et al.'s adaptive logging,
   priced with this model's constants).  Per-transaction recovery-time
   contribution at [workers] partitions:

     value:    io(value_bytes)/W   + u·value_apply/W
     command:  io(command_bytes)/W + u·command_apply/W     (local)
               io(command_bytes)/W + u·command_apply       (cross-partition:
                                                            priced as serial
                                                            replay)

   Command records always win on log volume; they lose at high [workers]
   when the transaction spans partitions, because the model pins their
   re-execution to one worker while value records keep shrinking with W.
   That serial price is the model's assumption only: Replay splits a
   cross-partition command by partition and replays its ops in
   parallel.  Recalibrating it moves every golden that prices recovery. *)
let adaptive_command_wins t ~workers ~updates_per_txn ~cross_partition =
  let w = float_of_int (max 1 workers) in
  let u = float_of_int updates_per_txn in
  let io bytes =
    float_of_int bytes /. float_of_int t.log_page_bytes *. t.page_write_time
  in
  let value_cost =
    (io (value_bytes_per_txn t ~updates_per_txn) /. w)
    +. (u *. value_apply_time /. w)
  in
  let command_io = io (command_bytes_per_txn t ~updates_per_txn) /. w in
  let command_apply =
    if cross_partition then u *. command_apply_time
    else u *. command_apply_time /. w
  in
  command_io +. command_apply < value_cost
