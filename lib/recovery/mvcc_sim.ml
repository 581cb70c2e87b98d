module U = Mmdb_util
module S = Mmdb_storage

type scheme = Locking | Versioning

type result = {
  scheme_label : string;
  events : Schedule.event list;
      (* domain-stamped version-store accesses (writers dom 0, readers
         dom 1), empty unless recording was requested *)
  writer_tps : float;
  writer_p99_latency : float;
  reader_count : int;
  snapshots_consistent : bool;
  versions_peak : int;
}

let scheme_label = function Locking -> "locking" | Versioning -> "versioning"

(* A scanning reader starts every [reader_every] simulated seconds and
   holds its snapshot or lock for [reader_duration]. *)
let reader_every = 2.0
let reader_duration = 1.0

let run ?(seed = 83) ?(nrecords = 1000) ?(n_writers = 20_000)
    ?(record_schedule = false) scheme =
  let rng = U.Xorshift.create seed in
  let clock = S.Sim_clock.create () in
  let wal = Wal.create ~clock Wal.Group_commit in
  let kernel = Txn.create ~nrecords ~wal () in
  let recorder =
    if record_schedule then
      Some (Schedule.recorder ~now:(fun () -> S.Sim_clock.now clock))
    else None
  in
  let versions = Version_store.create ?recorder ~nrecords () in
  (* Schedule stamps: all writers execute on (simulated) domain 0, all
     snapshot readers on domain 1; readers get txn ids above the writer
     id space. *)
  let reader_txn k = n_writers + k in
  let versions_peak = ref 0 in
  let txns =
    Workload.generate ~rng ~nrecords ~updates_per_txn:6 ~n:n_writers ()
  in
  (* Offered load just under the group-commit ceiling, so locking stalls
     surface as latency/backlog rather than vanishing into saturation. *)
  let inter_arrival = 1.0 /. 950.0 in
  (* Reader windows: [k*every, k*every + duration), k >= 1. *)
  let window_of t =
    let k = int_of_float (t /. reader_every) in
    if k >= 1 && t >= (float_of_int k *. reader_every)
       && t < (float_of_int k *. reader_every) +. reader_duration
    then Some k
    else None
  in
  let window_end k = (float_of_int k *. reader_every) +. reader_duration in
  (* Versioning readers do half their scan at the window start and half at
     the end — at the same snapshot timestamp — to demonstrate snapshot
     isolation under concurrent writes. *)
  let consistent = ref true in
  let readers_done = ref 0 in
  let pending_reader : (int * float * int) option ref = ref None in
  (* (window k, snapshot ts, partial sum of first half) *)
  let start_reader k ts =
    match scheme with
    | Locking ->
      (* Writers stalled for the window: read the live store directly. *)
      let sum = Array.fold_left ( + ) 0 (Kv_store.balances (Txn.kv kernel)) in
      if sum <> 0 then consistent := false;
      incr readers_done
    | Versioning ->
      let half = nrecords / 2 in
      let partial = ref 0 in
      for slot = 0 to half - 1 do
        partial :=
          !partial
          + Version_store.read ~txn:(reader_txn k) ~domain:1 versions ~ts ~slot
      done;
      pending_reader := Some (k, ts, !partial)
  in
  let finish_reader () =
    match !pending_reader with
    | None -> ()
    | Some (k, ts, partial) ->
      let half = nrecords / 2 in
      let total = ref partial in
      for slot = half to nrecords - 1 do
        total :=
          !total
          + Version_store.read ~txn:(reader_txn k) ~domain:1 versions ~ts ~slot
      done;
      if !total <> 0 then consistent := false;
      incr readers_done;
      pending_reader := None;
      (* Reader finished: old versions up to its snapshot are garbage. *)
      ignore (Version_store.gc versions ~oldest_active_ts:ts)
  in
  let last_window_started = ref 0 in
  let advance_readers_to t =
    (* Fire window starts/ends that occur at or before [t]. *)
    let rec go () =
      let next_k = !last_window_started + 1 in
      let next_start = float_of_int next_k *. reader_every in
      let pending_end =
        match !pending_reader with
        | Some (k, _, _) -> Some (window_end k)
        | None -> None
      in
      match pending_end with
      | Some e when e <= t ->
        finish_reader ();
        go ()
      | _ ->
        if next_start <= t then begin
          last_window_started := next_k;
          (* Snapshot strictly precedes any writer arriving at the window
             boundary itself. *)
          start_reader next_k (next_start -. 1e-9);
          go ()
        end
    in
    go ()
  in
  let tickets = ref [] in
  List.iteri
    (fun i (txn : Workload.txn) ->
      let arrival = float_of_int i *. inter_arrival in
      advance_readers_to arrival;
      (* Under locking a writer arriving inside a reader window waits for
         the shared lock to drop at the window end. *)
      let effective =
        match scheme with
        | Versioning -> arrival
        | Locking -> (
          match window_of arrival with
          | Some k -> window_end k
          | None -> arrival)
      in
      let o =
        Txn.run kernel ~txn:txn.Workload.txn_id ~at:effective
          txn.Workload.updates
      in
      (* Versioning installs each committed value as a version stamped
         with the commit time. *)
      (match scheme with
      | Versioning ->
        List.iter
          (function
            | Log_record.Update { slot; new_value; _ } ->
              Version_store.write ~txn:txn.Workload.txn_id ~domain:0 versions
                ~ts:effective ~slot ~value:new_value
            | Log_record.Begin _ | Log_record.Commit _ | Log_record.Abort _
            | Log_record.Command _ | Log_record.Ckpt_begin _
            | Log_record.Ckpt_end _ -> ())
          o.Txn.records
      | Locking -> ());
      versions_peak := max !versions_peak (Version_store.version_count versions);
      tickets := (arrival, o.Txn.ticket) :: !tickets)
    txns;
  let done_at =
    Wal.flush wal ~at:(float_of_int (n_writers - 1) *. inter_arrival)
  in
  advance_readers_to (done_at +. reader_every);
  finish_reader ();
  let latencies = ref [] in
  let last_commit = ref 0.0 in
  List.iter
    (fun (arrival, ticket) ->
      match Wal.ticket_completion ticket with
      | Some c ->
        latencies := (c -. arrival) :: !latencies;
        last_commit := Float.max !last_commit c
      | None ->
        raise
          (Wal.Unresolved_ticket
             { sim = "Mvcc_sim"; txn = Wal.ticket_txn ticket }))
    !tickets;
  let makespan = Float.max !last_commit done_at in
  {
    scheme_label = scheme_label scheme;
    events = (match recorder with Some r -> Schedule.events r | None -> []);
    writer_tps = float_of_int n_writers /. Float.max 1e-9 makespan;
    writer_p99_latency = U.Stats.percentile (Array.of_list !latencies) 0.99;
    reader_count = !readers_done;
    snapshots_consistent = !consistent;
    versions_peak = (match scheme with Locking -> 0 | Versioning -> !versions_peak);
  }
