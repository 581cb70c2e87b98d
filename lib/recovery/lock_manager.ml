type grant = { granted_txn : int; dependencies : int list }

(* A live transaction: one that has touched the manager and has not
   finished.  Finished ids leave the table for the [finished] bitset. *)
type txn_state = {
  mutable held : int list;
      (* keys, newest first; kept past pre-commit for [finalize] *)
  mutable waiting_for : int;  (* the key it is queued on, or -1 *)
  mutable wait_deadline : float option;
      (* absolute expiry for the current wait: unbounded waits turn
         convoy deadlocks into typed timeouts (OVLD004) *)
  mutable precommitted : bool;
  no_deps : grant option;
      (* the grant without dependencies, built once per transaction
         rather than once per acquire *)
}

module Itbl = Hashtbl.Make (Int)

(* The three sets of Section 5.2 live in arrays indexed by key, grown on
   demand to the largest key seen. *)
type t = {
  mutable holders : int array;  (* the holder, or -1 *)
  mutable queues : int Queue.t option array;
      (* waiters, oldest first; made at a key's first wait *)
  mutable precommits : int list array;
      (* pre-committed former holders, newest first *)
  txns : txn_state Itbl.t;  (* active and pre-committed only *)
  mutable finished : Bytes.t;  (* one bit per committed or aborted id *)
  recorder : Schedule.recorder option;
  domain_of : int -> int;
}

let create ?recorder ?(domain_of = fun _ -> 0) () =
  {
    holders = [||];
    queues = [||];
    precommits = [||];
    txns = Itbl.create 64;
    finished = Bytes.empty;
    recorder;
    domain_of;
  }

(* Without a recorder nothing is built: no [Some key], no domain lookup.
   Callers build a kind that carries a payload only when [recording]. *)
let recording t = Option.is_some t.recorder

let emit t ~key ~txn kind =
  match t.recorder with
  | None -> ()
  | Some _ ->
    Schedule.emit t.recorder
      ?key:(if key < 0 then None else Some key)
      ~domain:(t.domain_of txn) ~txn kind

let grow_to n a fill =
  let b = Array.make n fill in
  Array.blit a 0 b 0 (Array.length a);
  b

let ensure_key t key =
  let n = Array.length t.holders in
  if key >= n then begin
    let n = max (key + 1) (2 * n) in
    t.holders <- grow_to n t.holders (-1);
    t.queues <- grow_to n t.queues None;
    t.precommits <- grow_to n t.precommits []
  end

let is_finished t txn =
  let i = txn lsr 3 in
  txn >= 0
  && i < Bytes.length t.finished
  && Char.code (Bytes.get t.finished i) land (1 lsl (txn land 7)) <> 0

let mark_finished t txn =
  let i = txn lsr 3 in
  let n = Bytes.length t.finished in
  if i >= n then begin
    let b = Bytes.make (max (i + 1) (2 * n)) '\000' in
    Bytes.blit t.finished 0 b 0 n;
    t.finished <- b
  end;
  Bytes.set t.finished i
    (Char.chr (Char.code (Bytes.get t.finished i) lor (1 lsl (txn land 7))))

(* [txn]'s live state, made at its first touch; [None] once finished. *)
let state t txn =
  match Itbl.find_opt t.txns txn with
  | Some _ as s -> s
  | None when is_finished t txn -> None
  | None ->
    if txn < 0 then
      invalid_arg (Printf.sprintf "Lock_manager: txn %d is negative" txn);
    let st =
      {
        held = [];
        waiting_for = -1;
        wait_deadline = None;
        precommitted = false;
        no_deps = Some { granted_txn = txn; dependencies = [] };
      }
    in
    Itbl.replace t.txns txn st;
    Some st

(* Hand [key] to [txn]; returns the grant's dependencies. *)
let grant_to t key txn st =
  t.holders.(key) <- txn;
  st.held <- key :: st.held;
  st.waiting_for <- -1;
  st.wait_deadline <- None;
  t.precommits.(key)

let acquire ?deadline t ~txn ~key =
  (* The paper's §5.2 invariant: a pre-committed transaction has released
     every lock and only awaits durability — it never grows its lock set
     again (and a finished transaction id is dead). *)
  let st =
    match state t txn with
    | Some st -> st
    | None ->
      invalid_arg
        (Printf.sprintf
           "Lock_manager.acquire: txn %d already finished (committed or \
            aborted)"
           txn)
  in
  if st.precommitted then
    invalid_arg
      (Printf.sprintf
         "Lock_manager.acquire: txn %d is pre-committed and cannot acquire \
          locks (pre-commit releases all locks for good)"
         txn);
  if st.waiting_for >= 0 then
    invalid_arg
      (Printf.sprintf "Lock_manager.acquire: txn %d already waits for %d" txn
         st.waiting_for);
  if key < 0 then
    invalid_arg (Printf.sprintf "Lock_manager.acquire: key %d is negative" key);
  emit t ~key ~txn Schedule.Acquire;
  ensure_key t key;
  let holder = t.holders.(key) in
  if holder = txn then begin
    emit t ~key ~txn (Schedule.Grant { deps = [] });
    st.no_deps
  end
  else if holder >= 0 then begin
    let q =
      match t.queues.(key) with
      | Some q -> q
      | None ->
        let q = Queue.create () in
        t.queues.(key) <- Some q;
        q
    in
    Queue.push txn q;
    st.waiting_for <- key;
    st.wait_deadline <-
      Option.map Mmdb_overload.Overload.Deadline.expires deadline;
    if recording t then emit t ~key ~txn (Schedule.Wait { holder });
    None
  end
  else begin
    let deps = grant_to t key txn st in
    if recording t then emit t ~key ~txn (Schedule.Grant { deps });
    match deps with
    | [] -> st.no_deps
    | _ :: _ -> Some { granted_txn = txn; dependencies = deps }
  end

(* Wake the next waiter of the now-free [key], if any.  Every queued id
   is live and waits for this key. *)
let wake_next t key =
  match t.queues.(key) with
  | None -> None
  | Some q -> (
    match Queue.take_opt q with
    | None -> None
    | Some next ->
      let deps = grant_to t key next (Itbl.find t.txns next) in
      if recording t then emit t ~key ~txn:next (Schedule.Wake { deps });
      Some { granted_txn = next; dependencies = deps })

(* Release [keys] in [held]'s order, moving [txn] to each key's
   pre-committed set when [precommit]; returns the woken grants in
   release order. *)
let rec release t txn ~precommit acc = function
  | [] -> List.rev acc
  | key :: rest ->
    assert (t.holders.(key) = txn);
    t.holders.(key) <- -1;
    if precommit then t.precommits.(key) <- txn :: t.precommits.(key);
    emit t ~key ~txn Schedule.Release;
    let acc = match wake_next t key with Some g -> g :: acc | None -> acc in
    release t txn ~precommit acc rest

let precommit t ~txn =
  match state t txn with
  | Some st when not st.precommitted ->
    if st.waiting_for >= 0 then
      invalid_arg
        (Printf.sprintf "Lock_manager.precommit: txn %d waits for key %d" txn
           st.waiting_for);
    st.precommitted <- true;
    emit t ~key:(-1) ~txn Schedule.Precommit;
    release t txn ~precommit:true [] st.held
  | Some _ | None ->
    invalid_arg "Lock_manager.precommit: transaction not active"

let dequeue t key txn =
  match t.queues.(key) with
  | None -> ()
  | Some q ->
    let kept = Queue.create () in
    Queue.iter (fun w -> if w <> txn then Queue.push w kept) q;
    Queue.clear q;
    Queue.transfer kept q

let stop_waiting t st txn =
  if st.waiting_for >= 0 then begin
    dequeue t st.waiting_for txn;
    st.waiting_for <- -1;
    st.wait_deadline <- None
  end

let release_abort t ~txn =
  match state t txn with
  | Some st when not st.precommitted ->
    stop_waiting t st txn;
    let grants = release t txn ~precommit:false [] st.held in
    Itbl.remove t.txns txn;
    mark_finished t txn;
    grants
  | Some _ | None ->
    invalid_arg
      "Lock_manager.release_abort: pre-committed transactions never abort"

(* Each key holds [txn] once in its pre-committed set; the list after it
   is shared, not copied. *)
let rec remove_first txn before = function
  | [] -> List.rev before
  | x :: rest ->
    if x = txn then List.rev_append before rest
    else remove_first txn (x :: before) rest

let rec unlink t txn = function
  | [] -> ()
  | key :: rest ->
    t.precommits.(key) <- remove_first txn [] t.precommits.(key);
    unlink t txn rest

let finalize t ~txn =
  match Itbl.find_opt t.txns txn with
  | Some st when st.precommitted ->
    unlink t txn st.held;
    Itbl.remove t.txns txn;
    mark_finished t txn
  | Some _ | None ->
    invalid_arg "Lock_manager.finalize: transaction not pre-committed"

(* Sweep every waiter whose deadline passed: remove its queue
   registration and return the transaction ids (ascending, for
   determinism).  The caller decides the fate of each — typically
   {!release_abort} plus a typed OVLD004 rejection — so the abort flows
   through the same audited path as any other abort. *)
let expire_waiters t ~now =
  let expired =
    Itbl.fold
      (fun txn st acc ->
        match st.wait_deadline with
        | Some d when st.waiting_for >= 0 && now > d -> txn :: acc
        | Some _ | None -> acc)
      t.txns []
    |> List.sort compare
  in
  List.iter (fun txn -> stop_waiting t (Itbl.find t.txns txn) txn) expired;
  expired

let in_range t key = key >= 0 && key < Array.length t.holders

let holder t ~key =
  if in_range t key && t.holders.(key) >= 0 then Some t.holders.(key)
  else None

let waiters t ~key =
  match if in_range t key then t.queues.(key) else None with
  | Some q -> List.of_seq (Queue.to_seq q)
  | None -> []

let precommitted t ~key =
  if in_range t key then List.rev t.precommits.(key) else []

let locks_held t ~txn =
  match Itbl.find_opt t.txns txn with
  | Some st -> List.rev st.held
  | None -> []
