module R = Mmdb_recovery
module S = Mmdb_storage
module X = Mmdb_util.Xorshift
module O = Mmdb_overload.Overload
module D = Mmdb_util.Diag

type inject = [ `Ww | `Rw | `Unguarded | `Release_no_acquire | `Snapshot ]

type case = {
  seed : int;
  txns : int;
  domains : int;
  scramble : bool;
  crash : bool;
  spike : bool;
  inject : inject list;
}

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

(* Up to [inflight] transactions interleave over [accounts] accounts
   (few, so they contend); [abort_pct] percent of them abort
   voluntarily. *)
let inflight = 4
let accounts = 16
let abort_pct = 15

(* Each control's name, expected code, and ghost accesses as (ghost,
   version, op). *)
let control (i : inject) =
  let open R.Schedule in
  match i with
  | `Ww -> ("`Ww", "RACE001", [ (0, None, Write); (1, None, Write) ])
  | `Rw -> ("`Rw", "RACE002", [ (0, None, Read); (1, None, Write) ])
  (* two lock-free reads: only the Eraser lockset fallback sees them *)
  | `Unguarded ->
    ("`Unguarded", "RACE003", [ (0, None, Read); (1, None, Read) ])
  | `Release_no_acquire ->
    ("`Release_no_acquire", "RACE004", [ (0, None, Release) ])
  (* version 99 installed mid-scan, below the active snapshot 100 *)
  | `Snapshot ->
    ( "`Snapshot",
      "RACE005",
      [ (0, Some 100.0, Read); (1, Some 99.0, Write); (0, Some 100.0, Read) ]
    )

let run { seed; txns; domains; scramble; crash; spike; inject } =
  if txns < 1 then invalid_arg "Txn_fuzz.run: txns < 1";
  if domains < 1 then invalid_arg "Txn_fuzz.run: domains < 1";
  let rng = X.create seed in
  let clock = S.Sim_clock.create () in
  let recorder = R.Schedule.recorder ~now:(fun () -> S.Sim_clock.now clock) in
  let rec_opt = Some recorder in
  (* Transaction [id] runs on simulated domain [id mod domains]: the
     scheduler interleaves transactions arbitrarily, so every
     cross-domain ordering must come from lock edges. *)
  let domain_of id = id mod domains in
  let admission = O.Admission.create ~rate:spike_rate ~burst:spike_burst () in
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
  let next_plan = ref 0 and next_id = ref 0 and live = ref [] in
  let committed = ref 0 and aborted = ref 0 in
  let waits = ref 0 and deadlocks = ref 0 in
  let remove t = live := List.filter (fun u -> u.id <> t.id) !live in
  (* Transactions a commit or abort woke move back to Running: the key
     each was queued on becomes acquired. *)
  let absorb_woken woken =
    List.iter
      (fun id ->
        match List.find_opt (fun u -> u.id = id) !live with
        | Some ({ state = Waiting key; _ } as w) ->
          let delta =
            Option.value ~default:0 (List.assoc_opt key w.to_acquire)
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
  let pick l =
    let a = Array.of_list l in
    a.(X.int rng (Array.length a))
  in
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
       if spike then
         List.iter
           (fun id ->
             match List.find_opt (fun u -> u.id = id) !live with
             | Some t ->
               note_ovld "OVLD004";
               kill_victim t
             | None -> ())
           (R.Lock_manager.expire_waiters (R.Txn.locks kernel) ~now:(now ()));
       (* Admit new work (through the token bucket in spike mode: a shed
          arrival consumes its plan — the client was turned away). *)
       if List.compare_length_with !live inflight < 0 && !next_plan < txns
       then begin
         let plan, will_abort = plans.(!next_plan) in
         incr next_plan;
         let admitted =
           (not spike)
           ||
           match O.Admission.admit admission ~now:(now ()) ~priority:O.Oltp with
           | () -> true
           | exception O.Shed r ->
             note_ovld r.O.code;
             false
         in
         if admitted then begin
           let id = !next_id in
           incr next_id;
           let deadline =
             if spike then
               Some (O.Deadline.make ~now:(now ()) ~budget:spike_budget)
             else None
           in
           live :=
             { id; to_acquire = plan; acquired = []; state = Running;
               will_abort; deadline }
             :: !live
         end
       end;
       match running () with
       | [] ->
         (* Everyone in flight is queued on someone else: with a finite
            set of transactions each waiting for exactly one held key,
            that is a waits-for cycle.  Break it by aborting a victim. *)
         if !live <> [] then begin
           incr deadlocks;
           kill_victim (pick !live)
         end
       | rs -> step_txn (pick rs)
     done
   with Exit -> ());
  if not !crashed then begin
    tick ();
    ignore (R.Wal.flush wal ~at:(now ()))
  end;
  R.Txn.retire kernel ~at:(now ());
  (* Positive controls, after the workload: ghost [g] of injection [i]
     is transaction [1_000_000 + 2i + g] on domain [domains + 1 + 2i + g],
     and each injection has a private key above the account range, so
     controls interfere neither with each other nor with the workload. *)
  let injected =
    List.mapi
      (fun i kind ->
        let _, code, accesses = control kind in
        List.iter
          (fun (g, ver, op) ->
            R.Schedule.emit rec_opt ~key:(accounts + 1 + i)
              ~domain:(domains + 1 + (2 * i) + g)
              ?ver ~txn:(1_000_000 + (2 * i) + g) op)
          accesses;
        code)
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

(* The property.  Every injected race is reported; the only errors are
   on the injected controls (their keys lie above the account range)
   and, under scrambled acquisition order, TXN006: a deadlock the driver
   broke must be reported, and one a spike's lock-wait timeout broke or
   a crash cut off may be. *)
let on_control (d : D.t) =
  List.exists
    (fun kv ->
      Scanf.sscanf_opt kv "key=%d%!" (fun k -> k > accounts) = Some true)
    (String.split_on_char ' ' d.D.path)

let violations c o =
  List.filter_map
    (fun code ->
      if D.has_code code o.diags then None
      else Some (Printf.sprintf "missed %s" code))
    o.injected
  @ List.filter_map
      (fun (d : D.t) ->
        if on_control d || (c.scramble && d.D.code = "TXN006") then None
        else Some (Format.asprintf "%a" D.pp d))
      (D.errors o.diags)
  @
  if o.deadlocks > 0 && not (D.has_code "TXN006" o.diags) then
    [ Printf.sprintf "%d deadlocks broken, no TXN006" o.deadlocks ]
  else []

let gen =
  let open QCheck2.Gen in
  let+ seed = no_shrink (int_bound 1_000_000)
  and+ txns = int_range 1 120
  and+ domains = int_range 1 4
  and+ scramble = bool
  and+ crash = bool
  and+ spike = bool
  and+ inject =
    [ `Ww; `Rw; `Unguarded; `Release_no_acquire; `Snapshot ]
    |> List.map (fun i -> option ~ratio:0.5 (pure i))
    |> flatten_l |> map (List.filter_map Fun.id)
  in
  { seed; txns; domains; scramble; crash; spike; inject }

let pp_case ppf c =
  Format.fprintf ppf
    "{ seed = %d; txns = %d; domains = %d; scramble = %b; crash = %b; \
     spike = %b; inject = [%s] }"
    c.seed c.txns c.domains c.scramble c.crash c.spike
    (String.concat "; "
       (List.map (fun i -> match control i with name, _, _ -> name) c.inject))
