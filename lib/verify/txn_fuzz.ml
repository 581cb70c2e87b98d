module R = Mmdb_recovery
module S = Mmdb_storage
module X = Mmdb_util.Xorshift
module O = Mmdb_overload.Overload

type inject = [ `Ww | `Rw | `Unguarded | `Release_no_acquire | `Snapshot ]

type outcome = {
  events : R.Schedule.event list;
  log : R.Log_record.t list;
  diags : Mmdb_util.Diag.t list;
  injected : string list;
  committed : int;
  aborted : int;
  waits : int;
  deadlocks : int;
  crashed : bool;
  ovld_codes : (string * int) list;
}

type txn_state = Running | Waiting of int  (** the key it queued on *)

type txn = {
  id : int;
  mutable to_acquire : (int * int) list;  (** (slot, delta) not yet locked *)
  mutable acquired : (int * int) list;  (** newest first *)
  mutable state : txn_state;
  will_abort : bool;
  deadline : O.Deadline.t option;
}

(* Spike-mode knobs: a starved token bucket (arrivals come every
   simulated tick, tokens refill far slower) plus a lock-wait deadline
   a couple of dozen ticks long, so both admission sheds (OVLD001) and
   expired waiters (OVLD004) occur in ordinary seeded runs. *)
let spike_rate = 2000.0
let spike_burst = 2.0
let spike_budget = 5e-4

(* Up to [inflight] transactions interleave; [abort_pct] percent of them
   abort voluntarily. *)
let inflight = 4
let abort_pct = 15

let run ?(txns = 40) ?(accounts = 16) ?(scramble = false) ?(crash = false)
    ?(domains = 1) ?(spike = false) ?(inject : inject list = []) ~seed () =
  if txns < 1 then invalid_arg "Txn_fuzz.run: txns < 1";
  if accounts < 4 then invalid_arg "Txn_fuzz.run: accounts < 4";
  if domains < 1 then invalid_arg "Txn_fuzz.run: domains < 1";
  let rng = X.create seed in
  let clock = S.Sim_clock.create () in
  let recorder = R.Schedule.recorder ~now:(fun () -> S.Sim_clock.now clock) in
  let rec_opt = Some recorder in
  (* Simulated domain placement: transaction [id] executes on domain
     [id mod domains].  The single-threaded scheduler already interleaves
     transactions arbitrarily, so with [domains > 1] the recorded trace
     is a genuine multi-domain interleaving — every cross-domain ordering
     must come from lock edges, which is exactly what Schedule_check audits. *)
  let domain_of id = id mod domains in
  let admission =
    if spike then Some (O.Admission.create ~rate:spike_rate ~burst:spike_burst ())
    else None
  in
  let ovld = Hashtbl.create 8 in
  let note_ovld c =
    Hashtbl.replace ovld c
      (1 + Option.value ~default:0 (Hashtbl.find_opt ovld c))
  in
  let wal = R.Wal.create ~clock R.Wal.Group_commit in
  let kernel = R.Txn.create ~recorder ~domain_of ~nrecords:accounts ~wal () in
  let now () = S.Sim_clock.now clock in
  let tick () = S.Sim_clock.advance clock (1e-5 +. X.float rng 2e-4) in
  (* Pre-draw every transaction's plan so the workload is a pure function
     of the seed, independent of interleaving decisions. *)
  let plans =
    Array.init txns (fun _ ->
        let k = X.int_in_range rng ~lo:2 ~hi:4 in
        let slots = X.sample_without_replacement rng ~n:accounts ~k in
        if scramble then X.shuffle rng slots else Array.sort compare slots;
        ( Array.to_list
            (Array.map (fun s -> (s, X.int_in_range rng ~lo:(-50) ~hi:50)) slots),
          X.int rng 100 < abort_pct ))
  in
  let next_plan = ref 0 in
  let next_id = ref 0 in
  let live : txn list ref = ref [] in
  let committed = ref 0 in
  let aborted = ref 0 in
  let waits = ref 0 in
  let deadlocks = ref 0 in
  let remove t = live := List.filter (fun u -> u.id <> t.id) !live in
  (* Transactions a commit or abort woke move back to Running: the key
     each was queued on becomes acquired. *)
  let absorb_woken woken =
    List.iter
      (fun id ->
        match List.find_opt (fun u -> u.id = id) !live with
        | Some ({ state = Waiting key; _ } as w) ->
          let delta =
            match List.assoc_opt key w.to_acquire with
            | Some d -> d
            | None -> 0
          in
          w.to_acquire <- List.remove_assoc key w.to_acquire;
          w.acquired <- (key, delta) :: w.acquired;
          w.state <- Running
        | Some { state = Running; _ } | None -> ())
      woken
  in
  (* The banking work runs once every lock is held, oldest lock first;
     a planned abort then rolls it back. *)
  let finish t =
    List.iter
      (fun (slot, delta) -> R.Txn.write kernel ~txn:t.id ~slot ~delta)
      (List.rev t.acquired);
    let at = now () in
    let o =
      if t.will_abort then R.Txn.abort kernel ~txn:t.id ~at
      else R.Txn.commit kernel ~txn:t.id ~at
    in
    absorb_woken o.R.Txn.woken;
    if t.will_abort then incr aborted else incr committed;
    remove t
  in
  (* A deadlock victim dies while still queued, before any write: it
     logs only Begin/Abort. *)
  let kill_victim t =
    absorb_woken (R.Txn.abort kernel ~txn:t.id ~at:(now ())).R.Txn.woken;
    incr aborted;
    remove t
  in
  let step_txn t =
    match t.to_acquire with
    | (key, delta) :: rest ->
      if R.Txn.lock ?deadline:t.deadline kernel ~txn:t.id ~key then begin
        t.to_acquire <- rest;
        t.acquired <- (key, delta) :: t.acquired
      end
      else begin
        (* Keep the entry in [to_acquire]: the wake-up path pops it (and
           its delta) when the grant arrives. *)
        t.state <- Waiting key;
        incr waits
      end
    | [] -> finish t
  in
  let crash_after =
    if crash then max 1 (txns * 2 / 3) else max_int (* committed+aborted *)
  in
  let crashed = ref false in
  let running () = List.filter (fun t -> t.state = Running) !live in
  (try
     while !live <> [] || !next_plan < txns do
       if !committed + !aborted >= crash_after then begin
         crashed := true;
         raise Exit
       end;
       tick ();
       (* Spike mode: sweep waiters whose lock-wait deadline passed and
          abort each through the same audited Begin/Abort path as a
          deadlock victim — a typed OVLD004 timeout, never an unbounded
          wait. *)
       (match admission with
       | None -> ()
       | Some _ ->
         List.iter
           (fun id ->
             match List.find_opt (fun u -> u.id = id) !live with
             | Some t ->
               note_ovld "OVLD004";
               kill_victim t
             | None -> ())
           (R.Lock_manager.expire_waiters (R.Txn.locks kernel) ~now:(now ())));
       (* Admit new work (through the token bucket in spike mode: a shed
          arrival consumes its plan — the client was turned away). *)
       if List.compare_length_with !live inflight < 0 && !next_plan < txns
       then begin
         let plan, will_abort = plans.(!next_plan) in
         incr next_plan;
         let admitted =
           match admission with
           | None -> true
           | Some a -> (
             match O.Admission.admit a ~now:(now ()) ~priority:O.Oltp with
             | () -> true
             | exception O.Shed r ->
               note_ovld r.O.code;
               false)
         in
         if admitted then begin
           let id = !next_id in
           incr next_id;
           live :=
             {
               id;
               to_acquire = plan;
               acquired = [];
               state = Running;
               will_abort;
               deadline =
                 (if spike then
                    Some (O.Deadline.make ~now:(now ()) ~budget:spike_budget)
                  else None);
             }
             :: !live
         end
       end;
       match running () with
       | [] ->
         (* Everyone in flight is queued on someone else: with a finite
            set of transactions each waiting for exactly one held key,
            that is a waits-for cycle.  Break it by aborting a victim. *)
         (match !live with
         | [] -> ()
         | l ->
           incr deadlocks;
           let arr = Array.of_list l in
           kill_victim arr.(X.int rng (Array.length arr)))
       | rs ->
         let arr = Array.of_list rs in
         step_txn arr.(X.int rng (Array.length arr))
     done
   with Exit -> ());
  if not !crashed then begin
    tick ();
    ignore (R.Wal.flush wal ~at:(now ()))
  end;
  R.Txn.retire kernel ~at:(now ());
  (* Positive controls: seeded injected races.  Each injection uses ghost
     transactions on fresh domains and a private key above the account
     range, so every control maps to exactly one expected RACE code and
     controls do not interfere with each other or the real workload.
     (Ghost accesses are lock-free by design, so they also surface as
     TXN protocol errors in [diags]; race gates select the RACE codes.) *)
  let injected =
    List.mapi
      (fun i (kind : inject) ->
        let key = accounts + 1 + i in
        let da = domains + 1 + (2 * i) and db = domains + 2 + (2 * i) in
        let ta = 1_000_000 + (2 * i) and tb = 1_000_001 + (2 * i) in
        match kind with
        | `Ww ->
          R.Schedule.emit rec_opt ~key ~domain:da ~txn:ta R.Schedule.Write;
          R.Schedule.emit rec_opt ~key ~domain:db ~txn:tb R.Schedule.Write;
          "RACE001"
        | `Rw ->
          R.Schedule.emit rec_opt ~key ~domain:da ~txn:ta R.Schedule.Read;
          R.Schedule.emit rec_opt ~key ~domain:db ~txn:tb R.Schedule.Write;
          "RACE002"
        | `Unguarded ->
          (* two lock-free reads: no write/write or read/write pair, so
             only the Eraser lockset fallback can catch it *)
          R.Schedule.emit rec_opt ~key ~domain:da ~txn:ta R.Schedule.Read;
          R.Schedule.emit rec_opt ~key ~domain:db ~txn:tb R.Schedule.Read;
          "RACE003"
        | `Release_no_acquire ->
          R.Schedule.emit rec_opt ~key ~domain:da ~txn:ta R.Schedule.Release;
          "RACE004"
        | `Snapshot ->
          (* version 99 installed mid-scan, below the active snapshot 100 *)
          R.Schedule.emit rec_opt ~key ~domain:da ~ver:100.0 ~txn:ta
            R.Schedule.Read;
          R.Schedule.emit rec_opt ~key ~domain:db ~ver:99.0 ~txn:tb
            R.Schedule.Write;
          R.Schedule.emit rec_opt ~key ~domain:da ~ver:100.0 ~txn:ta
            R.Schedule.Read;
          "RACE005")
      inject
  in
  let events = R.Schedule.events recorder in
  let log = R.Wal.all_records wal in
  {
    events;
    log;
    diags = Schedule_check.audit ~log events;
    injected;
    committed = !committed;
    aborted = !aborted;
    waits = !waits;
    deadlocks = !deadlocks;
    crashed = !crashed;
    ovld_codes =
      List.sort compare (Hashtbl.fold (fun c n acc -> (c, n) :: acc) ovld []);
  }
