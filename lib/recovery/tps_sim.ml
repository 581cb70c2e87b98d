module U = Mmdb_util
module S = Mmdb_storage

type result = {
  strategy_label : string;
  tps : float;
  latency : U.Stats.summary;
  log_pages : int;
  log_disk_bytes : int;
}

let strategy_label = function
  | Wal.Conventional -> "conventional"
  | Wal.Group_commit -> "group-commit"
  | Wal.Partitioned { devices } -> Printf.sprintf "partitioned-%d" devices
  | Wal.Stable { devices; compressed; _ } ->
    Printf.sprintf "stable-%d%s" devices (if compressed then "-compressed" else "")

let run ?(nrecords = 1000) ?(arrival_interval = 0.0) ~n_txns strategy =
  if n_txns <= 0 then invalid_arg "Tps_sim.run: n_txns <= 0";
  let rng = U.Xorshift.create 1984 in
  let wal = Wal.create ~clock:(S.Sim_clock.create ()) strategy in
  let kernel = Txn.create ~nrecords ~wal () in
  let txns = Workload.generate ~rng ~nrecords ~n:n_txns () in
  let tickets = ref [] in
  List.iteri
    (fun i (txn : Workload.txn) ->
      let at = float_of_int i *. arrival_interval in
      let o = Txn.run kernel ~txn:txn.Workload.txn_id ~at txn.Workload.updates in
      tickets := (at, o.Txn.ticket) :: !tickets)
    txns;
  let last_arrival = float_of_int (n_txns - 1) *. arrival_interval in
  ignore (Wal.flush wal ~at:last_arrival);
  let latencies = ref [] in
  let last_completion = ref 0.0 in
  List.iter
    (fun (arrival, tkt) ->
      match Wal.ticket_completion tkt with
      | Some c ->
        latencies := (c -. arrival) :: !latencies;
        last_completion := Float.max !last_completion c
      | None ->
        raise
          (Wal.Unresolved_ticket
             { sim = "Tps_sim"; txn = Wal.ticket_txn tkt }))
    !tickets;
  let makespan = Float.max 1e-9 !last_completion in
  {
    strategy_label = strategy_label strategy;
    tps = float_of_int n_txns /. makespan;
    latency = U.Stats.summarize (Array.of_list !latencies);
    log_pages = Wal.pages_written wal;
    log_disk_bytes = Wal.disk_bytes_written wal;
  }
