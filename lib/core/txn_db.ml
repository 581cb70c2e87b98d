module R = Mmdb_recovery
module S = Mmdb_storage
module F = Mmdb_fault.Fault_plan
module O = Mmdb_overload.Overload

type commit_outcome = {
  txn_id : int;
  submitted_at : float;
  durable_at : float option;
}

type t = {
  clock : S.Sim_clock.t;
  wal : R.Wal.t;
  kernel : R.Txn.t;
  recorder : R.Schedule.recorder option;
  admission : O.Admission.t option;
  ovld : O.tally;
  work_per_update : float;
  faults : F.t option;
  retry_budget : int option;
  mutable tickets : R.Wal.ticket option array;  (* by transaction id *)
  mutable next_txn : int;
  mutable crashed : bool;
  mutable crash_log : R.Log_record.t list option;  (* until the next write *)
}

let create ?(strategy = R.Wal.Group_commit) ?(nrecords = 1000)
    ?(record_schedule = false) ?admission ?(work_per_update = 0.0) ?faults
    ?breaker ?retry_budget () =
  if work_per_update < 0.0 then
    invalid_arg "Txn_db.create: work_per_update < 0";
  (match retry_budget with
  | Some n when n < 0 -> invalid_arg "Txn_db.create: retry_budget < 0"
  | Some _ | None -> ());
  let clock = S.Sim_clock.create () in
  let recorder =
    if record_schedule then
      Some (R.Schedule.recorder ~now:(fun () -> S.Sim_clock.now clock))
    else None
  in
  (* An attached breaker also informs admission: while it is open the
     analytic class is shed (the shed-analytics degraded mode). *)
  (match (admission, breaker) with
  | Some a, Some b -> O.Admission.register_breaker a b
  | (Some _ | None), _ -> ());
  let wal = R.Wal.create ~clock ?faults ?breaker strategy in
  {
    clock;
    wal;
    kernel = R.Txn.create ?recorder ~nrecords ~wal ();
    recorder;
    admission;
    ovld =
      (match admission with
      | Some a -> O.Admission.tally a
      | None -> O.tally_create ());
    work_per_update;
    faults;
    retry_budget;
    tickets = Array.make 256 None;
    next_txn = 0;
    crashed = false;
    crash_log = None;
  }

let kv t = R.Txn.kv t.kernel
let balance t slot = R.Kv_store.get (kv t) slot

let balance_stale t slot = R.Kv_store.snapshot_read (kv t) slot

let now t = S.Sim_clock.now t.clock
let advance t dt = S.Sim_clock.advance t.clock dt
let overload_tally t = t.ovld

(* Seconds of log-device backlog at [now]: the admission controller's
   congestion signal (writes queue behind [Wal.quiesce_time]). *)
let log_lag t = Float.max 0.0 (R.Wal.quiesce_time t.wal -. now t)

(* Ids run densely from 0 ([next_txn]), so the tickets sit in an array
   that doubles when an id outruns it. *)
let remember t txn tkt =
  let n = Array.length t.tickets in
  if txn >= n then begin
    let a = Array.make (max (txn + 1) (2 * n)) None in
    Array.blit t.tickets 0 a 0 n;
    t.tickets <- a
  end;
  t.tickets.(txn) <- Some tkt

let completion t ~txn =
  if txn < 0 || txn >= Array.length t.tickets then None
  else Option.bind t.tickets.(txn) R.Wal.ticket_completion

(* Every call that writes or flushes the log checks this first. *)
let check_alive t =
  if t.crashed then invalid_arg "Txn_db: crashed; recover first";
  t.crash_log <- None

(* A slot locked twice inside one transaction would hit the lock
   manager's re-acquire path, whose empty grant muddies the dependency
   accounting — reject it up front. *)
let check_slots ~what updates =
  if updates = [] then invalid_arg (what ^ ": no updates");
  let slots = List.sort compare (List.map fst updates) in
  let rec dup = function
    | a :: (b :: _ as rest) -> if a = b then Some a else dup rest
    | [ _ ] | [] -> None
  in
  match dup slots with
  | Some s ->
    invalid_arg (Printf.sprintf "%s: duplicate slot %d in update list" what s)
  | None -> ()

(* Per-transaction I/O retry budget: installed on the shared fault plan
   for the duration of one transaction, so every transient-retry ride it
   triggers (log device, disk) draws from the same pool. *)
let install_budget t =
  match (t.retry_budget, t.faults) with
  | Some n, Some plan -> F.set_retry_budget plan (Some (O.Retry.budget n))
  | (Some _ | None), (Some _ | None) -> ()

let clear_budget t =
  match t.faults with
  | Some plan -> F.set_retry_budget plan None
  | None -> ()

(* Deadline check: once [deadline] has passed, abort through the kernel
   (rolling back whatever the transaction wrote and logging the abort,
   so the durable log and the schedule audit both see a complete
   transaction), then raise the typed shed. *)
let check_deadline t ~txn ~code ~site = function
  | Some d when O.Deadline.expired d ~now:(now t) ->
    ignore (R.Txn.abort t.kernel ~txn ~at:(now t));
    O.note_code t.ovld code;
    O.shed ~code ~site
      (Printf.sprintf "txn %d exceeded its deadline by %.6f s" txn
         (now t -. O.Deadline.expires d))
  | Some _ | None -> ()

(* Single-client service: every lock is free when a transaction asks. *)
let lock_all ?deadline t ~txn updates =
  List.iter
    (fun (slot, _) ->
      check_deadline t ~txn ~code:"OVLD004" ~site:"txn.lock" deadline;
      if not (R.Txn.lock ?deadline t.kernel ~txn ~key:slot) then assert false)
    updates

let transact ?(priority = O.Oltp) ?deadline t updates =
  (* Degraded read-only mode: while recovery replay is pending, an
     admission-governed service sheds writes with a typed OVLD009 instead
     of failing the caller with an untyped invalid-arg. *)
  (match t.admission with
  | Some a when t.crashed && O.Admission.mode a = O.Admission.Read_only ->
    O.note_code t.ovld "OVLD009";
    O.shed ~code:"OVLD009" ~site:"txn.begin"
      "service is read-only until recovery replay completes (use \
       balance_stale for snapshot reads)"
  | Some _ | None -> ());
  check_alive t;
  check_slots ~what:"Txn_db.transact" updates;
  let at = now t in
  (match t.admission with
  | Some a ->
    O.Admission.admit a ~now:at ~priority ~lag:(log_lag t)
  | None -> ());
  let txn = t.next_txn in
  t.next_txn <- txn + 1;
  install_budget t;
  Fun.protect
    ~finally:(fun () -> clear_budget t)
    (fun () ->
      lock_all ?deadline t ~txn updates;
      (* Each update costs [work_per_update] of simulated time, which is
         what makes a mid-transaction deadline expiry reachable. *)
      List.iter
        (fun (slot, delta) ->
          if t.work_per_update > 0.0 then
            S.Sim_clock.advance t.clock t.work_per_update;
          R.Txn.write t.kernel ~txn ~slot ~delta)
        updates;
      check_deadline t ~txn ~code:"OVLD006" ~site:"txn.commit" deadline;
      let o = R.Txn.commit t.kernel ~txn ~at:(now t) in
      remember t txn o.R.Txn.ticket;
      {
        txn_id = txn;
        submitted_at = at;
        durable_at = R.Wal.ticket_completion o.R.Txn.ticket;
      })

let transact_abort t updates =
  check_alive t;
  check_slots ~what:"Txn_db.transact_abort" updates;
  let at = now t in
  let txn = t.next_txn in
  t.next_txn <- txn + 1;
  lock_all t ~txn updates;
  List.iter (fun (slot, delta) -> R.Txn.write t.kernel ~txn ~slot ~delta) updates;
  ignore (R.Txn.abort t.kernel ~txn ~at);
  txn

let flush t =
  check_alive t;
  let done_at = R.Wal.flush t.wal ~at:(now t) in
  S.Sim_clock.advance_to t.clock (Float.max done_at (R.Wal.quiesce_time t.wal));
  R.Txn.retire t.kernel ~at:(now t)

let checkpoint t =
  check_alive t;
  let c = R.Txn.checkpoint t.kernel ~at:(now t) ~deadline:None in
  S.Sim_clock.advance_to t.clock c.R.Txn.log_durable;
  R.Txn.retire t.kernel ~at:(now t);
  c.R.Txn.sweep

let crash t =
  check_alive t;
  let log = R.Txn.crash t.kernel ~at:(now t) in
  t.crash_log <- Some log;
  t.crashed <- true;
  (* A commit the crash lost never becomes durable. *)
  let survived = Hashtbl.create 64 in
  List.iter (fun txn -> Hashtbl.replace survived txn ()) (R.Log_record.committed log);
  Array.iteri
    (fun txn tkt ->
      if Option.is_some tkt && not (Hashtbl.mem survived txn) then t.tickets.(txn) <- None)
    t.tickets;
  (* Degrade rather than refuse: with an admission controller attached,
     the service keeps answering stale snapshot reads ([balance_stale])
     and sheds writes typed (OVLD009) until [recover] runs. *)
  match t.admission with
  | Some a -> O.Admission.set_mode a O.Admission.Read_only
  | None -> ()

(* exn_flow: Crashed_during_recovery fires only with a crash budget, and
   this restart passes none. *)
let recover t =
  if not t.crashed then invalid_arg "Txn_db.recover: not crashed";
  let stats, _ =
    R.Txn.recover t.kernel ~workers:1 ~use_domains:false ~crash_steps:None
      ~recorder:None
  in
  t.crashed <- false;
  (match t.admission with
  | Some a -> O.Admission.set_mode a O.Admission.Normal
  | None -> ());
  stats

let committed_txns t =
  R.Log_record.committed
    (match t.crash_log with
    | Some log -> log
    | None -> R.Txn.surviving_log t.kernel ~at:(now t))

let schedule t =
  Option.value (Option.map R.Schedule.events t.recorder) ~default:[]

let log_records t = R.Wal.all_records t.wal
let log_pages t = R.Wal.pages_written t.wal
let log_disk_bytes t = R.Wal.disk_bytes_written t.wal
