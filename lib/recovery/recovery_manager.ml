module U = Mmdb_util
module S = Mmdb_storage
module Fault = Mmdb_fault.Fault
module Fault_plan = Mmdb_fault.Fault_plan

type logging_mode = Value_logging | Command_logging | Adaptive_logging

type replay_config = {
  workers : int;
  use_domains : bool;
  logging : logging_mode;
  crash_steps : int option;
  record_replay : bool;
}

let default_replay =
  {
    workers = 1;
    use_domains = false;
    logging = Value_logging;
    crash_steps = None;
    record_replay = false;
  }

type config = {
  nrecords : int;
  records_per_page : int;
  updates_per_txn : int;
  n_txns : int;
  checkpoint_every : int option;
  strategy : Wal.strategy;
  crash_after : int option;
  crash_at : float option;
  faults : Fault_plan.rule list;
  seed : int;
  replay : replay_config;
}

let default_config =
  {
    nrecords = 500;
    records_per_page = 20;
    updates_per_txn = 6;
    n_txns = 2000;
    checkpoint_every = Some 500;
    strategy = Wal.Group_commit;
    crash_after = None;
    crash_at = None;
    faults = [];
    seed = 7;
    replay = default_replay;
  }

type outcome = {
  durably_committed : int;
  submitted : int;
  acked_committed : int;
  acked_lost : int;
  durability_ok : bool;
  consistent : bool;
  money_conserved : bool;
  recover_stats : Kv_store.recover_stats;
  recovery_attempts : int;
  command_txns : int;
  replay_events : Schedule.event list;
  checkpoint_pages : int;
  log_disk_bytes : int;
  log_records : Log_record.t list;
  durable_log : Log_record.t list;
  page_spans : (float * float) list;
  fault_tally : Fault.tally;
  fault_events : (string * int) list;
}

(* exn_flow: Crashed_during_recovery fires only under Txn.recover's own
   handler, whose restart passes no crash budget. *)
let run cfg =
  let rng = U.Xorshift.create cfg.seed in
  let clock = S.Sim_clock.create () in
  let plan = Fault_plan.create ~seed:cfg.seed cfg.faults in
  (* Crashes that can land mid-page-write (crash_at, or any fault rule)
     need within-transaction page ordering: without it a straddling
     transaction's commit record can become durable on an idle log device
     while its update records are still in flight on a busier one.  The
     legacy quiesce-point model keeps the seed's fully parallel timing. *)
  let strict_page_order = cfg.crash_at <> None || cfg.faults <> [] in
  let wal = Wal.create ~faults:plan ~strict_page_order ~clock cfg.strategy in
  let kernel =
    Txn.create ~faults:plan ~records_per_page:cfg.records_per_page
      ~nrecords:cfg.nrecords ~wal ()
  in
  let n_submit =
    match cfg.crash_after with
    | Some k ->
      if k <= 0 || k > cfg.n_txns then
        invalid_arg "Recovery_manager: crash_after out of range";
      k
    | None -> cfg.n_txns
  in
  (match cfg.crash_at with
  | Some ct when ct < 0.0 ->
    invalid_arg "Recovery_manager: crash_at must be nonnegative"
  | Some _ | None -> ());
  let txns =
    Workload.generate ~rng ~nrecords:cfg.nrecords
      ~updates_per_txn:cfg.updates_per_txn ~n:cfg.n_txns ()
  in
  (* Per-transaction-class logging choice (adaptive logging): command
     records are ~7x smaller, and Recovery_model prices the ops of a
     transaction that spans replay partitions serially (Replay itself
     splits them by partition), so the model's decision rule flips to
     value records for cross-partition transactions as the worker count
     grows.  Partitioning here must mirror Kv_store.recover's:
     page mod workers. *)
  let replay_workers = max 1 cfg.replay.workers in
  let partition_of_slot slot = slot / cfg.records_per_page mod replay_workers in
  let command_logged (txn : Workload.txn) =
    List.compare_length_with txn.Workload.updates Log_record.max_command_ops
    <= 0
    &&
    match cfg.replay.logging with
    | Value_logging -> false
    | Command_logging -> true
    | Adaptive_logging ->
      let parts =
        List.sort_uniq compare
          (List.map (fun (s, _) -> partition_of_slot s) txn.Workload.updates)
      in
      let cross_partition =
        match parts with [] | [ _ ] -> false | _ :: _ :: _ -> true
      in
      Mmdb_model.Recovery_model.adaptive_command_wins
        Mmdb_model.Recovery_model.gray_banking ~workers:replay_workers
        ~updates_per_txn:(List.length txn.Workload.updates)
        ~cross_partition
  in
  let command_txns = ref 0 in
  let checkpoint_pages = ref 0 in
  let arrival i = float_of_int i *. 1e-3 in
  let crash_time = ref 0.0 in
  let tickets = ref [] in
  (* With crash_at set, the crash interrupts the run at an absolute
     simulated time: submissions at or after it never happen, and device
     writes still in flight at that moment are lost (or torn, when a
     torn-write rule is armed). *)
  let submits i =
    i < n_submit
    && match cfg.crash_at with Some ct -> arrival i < ct | None -> true
  in
  List.iteri
    (fun i (txn : Workload.txn) ->
      if submits i then begin
        let at = arrival i in
        crash_time := at;
        let command = command_logged txn in
        if command then incr command_txns;
        let o =
          Txn.run ~command kernel ~txn:txn.Workload.txn_id ~at
            txn.Workload.updates
        in
        tickets := (txn.Workload.txn_id, o.Txn.ticket) :: !tickets;
        match cfg.checkpoint_every with
        | Some every when (i + 1) mod every = 0 ->
          let c = Txn.checkpoint kernel ~at ~deadline:cfg.crash_at in
          checkpoint_pages :=
            !checkpoint_pages + c.Txn.sweep.Kv_store.pages_flushed
        | Some _ | None -> ()
      end)
    txns;
  (* Crash.  With crash_at, the crash hits at that exact simulated time —
     possibly mid-drain or mid-page-write.  With crash_after, all
     scheduled device writes complete (the crash hits while the system is
     otherwise idle) but the never-scheduled buffer tail — e.g. a
     partially filled commit group — is lost.  With neither, flush
     everything first (clean shutdown, then crash). *)
  let crash_at =
    match (cfg.crash_at, cfg.crash_after) with
    | Some ct, _ -> ct
    | None, Some _ -> Float.max !crash_time (Wal.quiesce_time wal)
    | None, None ->
      let done_at = Wal.flush wal ~at:!crash_time in
      Float.max done_at (Wal.quiesce_time wal) +. 1.0
  in
  let durable = Txn.crash kernel ~at:crash_at in
  let replay_recorder =
    if cfg.replay.record_replay then
      Some (Schedule.recorder ~now:(fun () -> 0.0))
    else None
  in
  let recover_stats, recovery_attempts =
    Txn.recover kernel ~workers:replay_workers
      ~use_domains:cfg.replay.use_domains ~crash_steps:cfg.replay.crash_steps
      ~recorder:replay_recorder
  in
  (* Golden state: replay exactly the durably committed transactions. *)
  let committed = Hashtbl.create 256 in
  List.iter
    (fun txn -> Hashtbl.replace committed txn ())
    (Log_record.committed durable);
  let golden = Array.make cfg.nrecords 0 in
  List.iter
    (fun (txn : Workload.txn) ->
      if Hashtbl.mem committed txn.Workload.txn_id then
        Workload.apply ~balances:golden txn)
    txns;
  let recovered = Kv_store.balances (Txn.kv kernel) in
  let consistent = recovered = golden in
  let money_conserved = Array.fold_left ( + ) 0 recovered = 0 in
  (* Durability audit: a transaction acknowledged committed before the
     crash (its ticket resolved at or before crash time) must still be
     committed after recovery.  Only a battery-droop fault can break
     this — the loss is then visible in the unrecoverable tally. *)
  let acked =
    List.filter
      (fun (_, tkt) ->
        match Wal.ticket_completion tkt with
        | Some c -> c <= crash_at
        | None -> false)
      !tickets
  in
  let acked_lost =
    List.length
      (List.filter (fun (txn, _) -> not (Hashtbl.mem committed txn)) acked)
  in
  {
    durably_committed = Hashtbl.length committed;
    submitted = List.length !tickets;
    acked_committed = List.length acked;
    acked_lost;
    durability_ok = acked_lost = 0;
    consistent;
    money_conserved;
    recover_stats;
    recovery_attempts;
    command_txns = !command_txns;
    replay_events =
      Option.value (Option.map Schedule.events replay_recorder) ~default:[];
    checkpoint_pages = !checkpoint_pages;
    log_disk_bytes = Wal.disk_bytes_written wal;
    log_records = Wal.all_records wal;
    durable_log = durable;
    page_spans = Wal.page_spans wal;
    fault_tally = Fault.tally_copy (Fault_plan.tally plan);
    fault_events = Fault_plan.event_counts plan;
  }
