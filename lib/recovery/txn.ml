module Fault_plan = Mmdb_fault.Fault_plan
module Heap = Mmdb_util.Heap

(* What the kernel keeps for a transaction between its first lock and
   its commit or abort. *)
type active = {
  mutable deps : int list;  (* pre-committed transactions it read from *)
  mutable begin_lsn : int;  (* 0 until the first write or the end *)
  mutable rev_body : Log_record.t list;  (* newest first *)
}

type t = {
  wal : Wal.t;
  kv : Kv_store.t;
  recorder : Schedule.recorder option;
  domain_of : int -> int;
  mutable locks : Lock_manager.t;
  active : (int, active) Hashtbl.t;
  mutable next_lsn : int;
  pending : (int * Wal.ticket) Queue.t;
      (* unresolved tickets with their submission numbers, in order *)
  mutable resolved : (int * Wal.ticket) Heap.t;
      (* resolved, not yet retired, by completion *)
  mutable submitted : int;
  mutable ckpt_open : bool;  (* a Ckpt_begin awaits its Ckpt_end *)
  mutable crash_log : Log_record.t list option;  (* fixed by [crash] *)
}

type outcome = {
  ticket : Wal.ticket;
  records : Log_record.t list;
  woken : int list;
}

let completion tkt =
  match Wal.ticket_completion tkt with Some c -> c | None -> assert false

let by_completion (i, a) (j, b) =
  match Float.compare (completion a) (completion b) with
  | 0 -> Int.compare i j
  | c -> c

let create ?recorder ?(domain_of = fun _ -> 0) ?faults
    ?(records_per_page = 20) ~nrecords ~wal () =
  let stable = Stable_memory.create ~capacity_bytes:(1 lsl 20) in
  {
    wal;
    kv = Kv_store.create ?faults ?recorder ~nrecords ~records_per_page ~stable ();
    recorder;
    domain_of;
    locks = Lock_manager.create ?recorder ~domain_of ();
    active = Hashtbl.create 16;
    next_lsn = 0;
    pending = Queue.create ();
    resolved = Heap.create ~cmp:by_completion ();
    submitted = 0;
    ckpt_open = false;
    crash_log = None;
  }

let kv t = t.kv
let locks t = t.locks
let unretired t = Queue.length t.pending + Heap.length t.resolved

let fresh_lsn t =
  t.next_lsn <- t.next_lsn + 1;
  t.next_lsn

let active t txn =
  match Hashtbl.find_opt t.active txn with
  | Some a -> a
  | None ->
    let a = { deps = []; begin_lsn = 0; rev_body = [] } in
    Hashtbl.replace t.active txn a;
    a

let begin_lsn t a =
  if a.begin_lsn = 0 then a.begin_lsn <- fresh_lsn t;
  a.begin_lsn

(* A grant's dependencies belong to the grantee, whether it was granted
   at [lock] time or woken by another transaction's release. *)
let absorb t (grants : Lock_manager.grant list) =
  List.map
    (fun (g : Lock_manager.grant) ->
      let a = active t g.granted_txn in
      a.deps <- List.rev_append g.dependencies a.deps;
      g.granted_txn)
    grants

let lock ?deadline t ~txn ~key =
  let a = active t txn in
  match Lock_manager.acquire ?deadline t.locks ~txn ~key with
  | Some g ->
    a.deps <- List.rev_append g.dependencies a.deps;
    true
  | None -> false

let write t ~txn ~slot ~delta =
  let a = active t txn in
  ignore (begin_lsn t a);
  let domain = t.domain_of txn in
  let old_value = Kv_store.get ~txn ~domain t.kv slot in
  let new_value = old_value + delta in
  let lsn = fresh_lsn t in
  Kv_store.apply_update ~txn ~domain t.kv ~lsn ~slot ~value:new_value;
  a.rev_body <-
    Log_record.Update { txn; lsn; slot; old_value; new_value } :: a.rev_body

(* Command logging: one record carries every operation, all at one LSN,
   so the run stays Begin L, Command L+1, Commit L+2. *)
let write_command t ~txn ops =
  let a = active t txn in
  ignore (begin_lsn t a);
  let domain = t.domain_of txn in
  let lsn = fresh_lsn t in
  List.iter
    (fun (slot, delta) ->
      let value = Kv_store.get ~txn ~domain t.kv slot + delta in
      Kv_store.apply_update ~txn ~domain t.kv ~lsn ~slot ~value)
    ops;
  a.rev_body <- Log_record.Command { txn; lsn; ops } :: a.rev_body

let take t txn =
  let a = active t txn in
  Hashtbl.remove t.active txn;
  a

(* Begin, the body oldest first, then the terminator: LSNs are drawn in
   that order, so the run is consecutive. *)
let assemble t ~txn a terminator =
  let begin_lsn = begin_lsn t a in
  let last = terminator (fresh_lsn t) in
  Log_record.Begin { txn; lsn = begin_lsn } :: List.rev (last :: a.rev_body)

(* The WAL resolves tickets in submission order (a page's tickets all at
   once, pages in order; stable memory at submission), so the resolved
   ones are a prefix of [pending].  Completions need not be monotone
   (partitioned devices), hence the heap.  The due tickets are retired
   newest submission first. *)
let retire t ~at =
  while
    (not (Queue.is_empty t.pending))
    && Option.is_some (Wal.ticket_completion (snd (Queue.peek t.pending)))
  do
    Heap.push t.resolved (Queue.take t.pending)
  done;
  let rec due acc =
    match Heap.peek t.resolved with
    | Some ((_, tkt) as e) when completion tkt <= at ->
      ignore (Heap.pop t.resolved);
      due (e :: acc)
    | Some _ | None -> acc
  in
  due []
  |> List.sort (fun (i, _) (j, _) -> Int.compare j i)
  |> List.iter (fun (_, tkt) ->
         let txn = Wal.ticket_txn tkt in
         if Option.is_some t.recorder then
           Schedule.emit t.recorder ~at:(completion tkt)
             ~domain:(t.domain_of txn) ~txn Schedule.Commit_durable;
         Lock_manager.finalize t.locks ~txn)

let commit t ~txn ~at =
  let a = take t txn in
  let records = assemble t ~txn a (fun lsn -> Log_record.Commit { txn; lsn }) in
  let woken = absorb t (Lock_manager.precommit t.locks ~txn) in
  let ticket = Wal.commit_txn t.wal ~at ~txn ~deps:a.deps records in
  Queue.push (t.submitted, ticket) t.pending;
  t.submitted <- t.submitted + 1;
  retire t ~at;
  { ticket; records; woken }

let abort t ~txn ~at =
  let a = take t txn in
  let domain = t.domain_of txn in
  (* Roll back newest first, logging each compensation, so redo replays
     the rollback too: otherwise recovery's undo would clobber a later
     committed write to the same slot. *)
  List.iter
    (fun r ->
      match r with
      | Log_record.Update { slot; old_value; new_value; _ } ->
        let lsn = fresh_lsn t in
        Kv_store.apply_update ~txn ~domain t.kv ~lsn ~slot ~value:old_value;
        a.rev_body <-
          Log_record.Update
            { txn; lsn; slot; old_value = new_value; new_value = old_value }
          :: a.rev_body
      (* command bodies only come from [run], which always commits *)
      | Log_record.Begin _ | Log_record.Commit _ | Log_record.Abort _
      | Log_record.Command _ | Log_record.Ckpt_begin _
      | Log_record.Ckpt_end _ -> assert false)
    a.rev_body;
  Schedule.emit t.recorder ~domain ~txn Schedule.Abort;
  let woken = absorb t (Lock_manager.release_abort t.locks ~txn) in
  let records = assemble t ~txn a (fun lsn -> Log_record.Abort { txn; lsn }) in
  let ticket = Wal.commit_txn t.wal ~at ~txn ~deps:[] records in
  { ticket; records; woken }

let run ?(command = false) t ~txn ~at updates =
  List.iter
    (fun (key, _) ->
      if not (lock t ~txn ~key) then
        invalid_arg
          (Printf.sprintf "Txn.run: txn %d would wait for key %d" txn key))
    updates;
  if command then write_command t ~txn updates
  else List.iter (fun (slot, delta) -> write t ~txn ~slot ~delta) updates;
  commit t ~txn ~at

type checkpoint = {
  sweep : Kv_store.checkpoint_stats;
  log_durable : float;
}

(* A sweep cut short by the deadline leaves the bracket open for the next
   call (a nested Ckpt_begin is LOG007).  WAL rule: the sweep waits for
   every queued log page, since its page images reflect their records. *)
let checkpoint t ~at ~deadline =
  if not t.ckpt_open then begin
    Wal.log_control t.wal ~at [ Log_record.Ckpt_begin { lsn = fresh_lsn t } ];
    t.ckpt_open <- true
  end;
  let log_durable = Float.max (Wal.flush t.wal ~at) (Wal.quiesce_time t.wal) in
  match deadline with
  | Some d when log_durable > d ->
    { sweep = { pages_flushed = 0; duration = 0.0 }; log_durable }
  | Some _ | None ->
    let sweep = Kv_store.checkpoint ~now:log_durable ?deadline t.kv in
    if Kv_store.dirty_pages t.kv = 0 then begin
      Wal.log_control t.wal ~at [ Log_record.Ckpt_end { lsn = fresh_lsn t } ];
      t.ckpt_open <- false
    end;
    { sweep; log_durable }

(* FAULT008: a transaction whose durable records are incomplete loses
   its terminator; [note] records each demotion on the WAL's fault
   plan. *)
let demote_incomplete t ~note durable =
  (* txn -> (min_lsn, max_lsn, count, has_begin, terminator_lsn) *)
  let stats = Hashtbl.create 64 in
  List.iter
    (fun r ->
      match Log_record.txn r with
      | None -> ()
      | Some tx ->
        let l = Log_record.lsn r in
        let mn, mx, n, hb, term =
          match Hashtbl.find_opt stats tx with
          | Some s -> s
          | None -> (l, l, 0, false, None)
        in
        let hb = hb || match r with Log_record.Begin _ -> true | _ -> false in
        let term =
          match r with
          | Log_record.Commit _ | Log_record.Abort _ -> Some l
          | _ -> term
        in
        Hashtbl.replace stats tx (min mn l, max mx l, n + 1, hb, term))
    durable;
  (* Complete = Begin present and exactly (terminator - begin + 1)
     records survived.  Dropping an incomplete transaction's terminator
     turns the remnant into a loser that undo reverses cleanly. *)
  let incomplete tx =
    match Hashtbl.find_opt stats tx with
    | Some (mn, mx, n, has_begin, Some term_lsn) ->
      (not has_begin) || mn + n - 1 <> mx || term_lsn <> mx
    | Some (_, _, _, _, None) | None -> false
  in
  List.filter
    (fun r ->
      match r with
      | Log_record.Commit { txn; _ } | Log_record.Abort { txn; _ } ->
        if incomplete txn then begin
          if note then
            Fault_plan.note_detected (Wal.faults t.wal) ~code:"FAULT008"
              ~site:"log.recover"
              (Printf.sprintf "txn %d: incomplete durable record set; demoting"
                 txn);
          false
        end
        else true
      | Log_record.Begin _ | Log_record.Update _ | Log_record.Command _
      | Log_record.Ckpt_begin _ | Log_record.Ckpt_end _ -> true)
    durable

let surviving_log t ~at =
  demote_incomplete t ~note:false (Wal.durable_records t.wal ~at)

let crash t ~at =
  let log = demote_incomplete t ~note:true (Wal.crash t.wal ~at) in
  Kv_store.crash t.kv;
  (* The lock table is volatile: holders, waiters and pre-committed sets
     go with it (the durable log decides their transactions). *)
  t.locks <- Lock_manager.create ?recorder:t.recorder ~domain_of:t.domain_of ();
  Hashtbl.reset t.active;
  Queue.clear t.pending;
  t.resolved <- Heap.create ~cmp:by_completion ();
  t.crash_log <- Some log;
  log

(* A restart starts over safely: pages written back before the crash
   carry their advanced redo and undo floors.
   exn_flow: Crashed_during_recovery fires only with [crash_after_steps],
   whose one call runs under its handler; the restart passes none. *)
let recover t ~workers ~use_domains ~crash_steps ~recorder =
  let log =
    match t.crash_log with
    | Some log -> log
    | None -> invalid_arg "Txn.recover: not crashed"
  in
  let replay ?crash_after_steps () =
    Kv_store.recover t.kv ~workers ~use_domains ?crash_after_steps
      ?replay_recorder:recorder ~log
  in
  match crash_steps with
  | None -> (replay (), 1)
  | Some n -> (
    try (replay ~crash_after_steps:n (), 1)
    with Kv_store.Crashed_during_recovery ->
      Fault_plan.note_detected (Wal.faults t.wal) ~code:"FAULT012"
        ~site:"recovery.replay"
        (Printf.sprintf "crash after %d replay steps; restarting recovery" n);
      Kv_store.crash t.kv;
      (replay (), 2))
