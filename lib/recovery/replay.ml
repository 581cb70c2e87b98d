(* Partitioned parallel redo.  See replay.mli for the scheduling
   contract; the short version: partition-local ops replay in log order
   within their partition, cross-partition commands rendezvous as
   barriers, and the simulated and domains modes produce the same final
   state because per-slot order is identical in both. *)

type action = Set of int | Add of int

(* Defensive: unreachable for queues built by [add_command] (barriers
   appear in LSN order in every touched queue), but typed so the torture
   harness could classify it if the invariant ever broke. *)
exception Rendezvous_deadlock

let () =
  Printexc.register_printer (function
    | Rendezvous_deadlock ->
      Some "Replay.Rendezvous_deadlock (no barrier can rendezvous)"
    | _ -> None)

type stats = {
  workers : int;
  local_ops : int;
  barrier_ops : int;
  barriers : int;
  used_domains : bool;
}

(* One partition's queue: a growable flat int array, [stride] ints per
   entry.  An entry is a local op (kind [k_set] or [k_add], with its
   slot and after-image or delta) or a barrier (kind [k_bar], whose
   slot field holds the command's index). *)
type queue = { mutable data : int array; mutable len : int }

let stride = 5
let f_kind = 0
let f_slot = 1
let f_arg = 2
let f_txn = 3
let f_lsn = 4
let k_set = 0
let k_add = 1
let k_bar = 2

(* A cross-partition command, interned once and referenced by index
   from every touched queue, so "all heads agree" compares indices. *)
type cmd = {
  c_txn : int;
  c_lsn : int;
  c_ops : (int * int) list;
  c_touched : int list;  (* sorted, distinct, length >= 2 *)
  c_parties : int;  (* length of [c_touched] *)
}

type t = {
  part : int -> int;
  queues : queue array;
  mutable rev_cmds : cmd list;
  mutable ncmds : int;
  mutable local_ops : int;
  mutable barrier_ops : int;
}

let create ~workers ~partition_of =
  if workers <= 0 then invalid_arg "Replay.create: workers <= 0";
  {
    part = (fun slot -> ((partition_of slot mod workers) + workers) mod workers);
    queues = Array.init workers (fun _ -> { data = [||]; len = 0 });
    rev_cmds = [];
    ncmds = 0;
    local_ops = 0;
    barrier_ops = 0;
  }

let push q ~kind ~slot ~arg ~txn ~lsn =
  let base = q.len * stride in
  if base + stride > Array.length q.data then begin
    let data = Array.make (max (16 * stride) (2 * Array.length q.data)) 0 in
    Array.blit q.data 0 data 0 base;
    q.data <- data
  end;
  q.data.(base + f_kind) <- kind;
  q.data.(base + f_slot) <- slot;
  q.data.(base + f_arg) <- arg;
  q.data.(base + f_txn) <- txn;
  q.data.(base + f_lsn) <- lsn;
  q.len <- q.len + 1

let add_op t ~txn ~lsn ~slot action =
  t.local_ops <- t.local_ops + 1;
  let kind, arg = match action with Set v -> (k_set, v) | Add d -> (k_add, d) in
  push t.queues.(t.part slot) ~kind ~slot ~arg ~txn ~lsn

(* A command whose ops land in a single partition (or that is empty)
   degrades to plain local ops — only genuinely cross-partition
   commands pay the rendezvous. *)
let add_command t ~txn ~lsn ops =
  match List.sort_uniq compare (List.map (fun (s, _) -> t.part s) ops) with
  | [] -> ()
  | [ _ ] -> List.iter (fun (slot, d) -> add_op t ~txn ~lsn ~slot (Add d)) ops
  | _ :: _ :: _ as touched ->
    let id = t.ncmds in
    let parties = List.length touched in
    t.ncmds <- id + 1;
    (* perf_lint: command op lists are <= max_command_ops (255), in
       practice updates_per_txn (<10) *)
    t.barrier_ops <- t.barrier_ops + List.length ops;
    t.rev_cmds <-
      {
        c_txn = txn;
        c_lsn = lsn;
        c_ops = ops;
        c_touched = touched;
        c_parties = parties;
      }
      :: t.rev_cmds;
    List.iter
      (fun p -> push t.queues.(p) ~kind:k_bar ~slot:id ~arg:0 ~txn ~lsn)
      touched

let field q i f = q.data.((i * stride) + f)

let action_of q i =
  let arg = field q i f_arg in
  if field q i f_kind = k_set then Set arg else Add arg

(* Deterministic round-robin interleaving of the partition queues, one
   entry per partition per round.  Emits the lock-protocol trace
   (Grant/Write/Release per applied op, stamped with the partition as
   the acting domain) when a recorder is armed, and calls [on_step]
   after every applied op so the store can crash mid-replay. *)
let run_simulated ~recorder ~on_step ~apply queues cmds =
  let workers = Array.length queues in
  let pos = Array.make workers 0 in
  let tick = ref 0 in
  let stamp () =
    incr tick;
    float_of_int !tick *. 1e-6
  in
  let step () = match on_step with Some f -> f () | None -> () in
  let apply_local ~dom ~txn ~lsn ~slot action =
    (match recorder with
    | None -> ()
    | Some _ ->
        Schedule.emit recorder ~at:(stamp ()) ~key:slot ~domain:dom ~txn
          (Schedule.Grant { deps = [] });
        Schedule.emit recorder ~at:(stamp ()) ~key:slot ~lsn ~domain:dom ~txn
          Schedule.Write;
        Schedule.emit recorder ~at:(stamp ()) ~key:slot ~domain:dom ~txn
          Schedule.Release);
    apply ~slot action;
    step ()
  in
  let apply_barrier ~dom (c : cmd) =
    (* 2PL shape: take every touched key, write them all, release them
       all.  The per-key Release->Grant edges order the barrier after
       each owning partition's preceding ops and before its following
       ones, which is exactly the happens-before the rendezvous
       enforces. *)
    (match recorder with
    | None -> ()
    | Some _ ->
        List.iter
          (fun (slot, _) ->
            Schedule.emit recorder ~at:(stamp ()) ~key:slot ~domain:dom
              ~txn:c.c_txn
              (Schedule.Grant { deps = [] }))
          c.c_ops);
    List.iter
      (fun (slot, d) ->
        (match recorder with
        | None -> ()
        | Some _ ->
            Schedule.emit recorder ~at:(stamp ()) ~key:slot ~lsn:c.c_lsn
              ~domain:dom ~txn:c.c_txn Schedule.Write);
        apply ~slot (Add d);
        step ())
      c.c_ops;
    match recorder with
    | None -> ()
    | Some _ ->
        List.iter
          (fun (slot, _) ->
            Schedule.emit recorder ~at:(stamp ()) ~key:slot ~domain:dom
              ~txn:c.c_txn Schedule.Release)
          c.c_ops
  in
  let head_is_bar q id =
    let qu = queues.(q) in
    pos.(q) < qu.len
    && field qu pos.(q) f_kind = k_bar
    && field qu pos.(q) f_slot = id
  in
  let finished () =
    let all = ref true in
    for p = 0 to workers - 1 do
      if pos.(p) < queues.(p).len then all := false
    done;
    !all
  in
  let rec loop () =
    let progress = ref false in
    for p = 0 to workers - 1 do
      let q = queues.(p) and i = pos.(p) in
      if i < q.len then
        if field q i f_kind <> k_bar then begin
          apply_local ~dom:p ~txn:(field q i f_txn) ~lsn:(field q i f_lsn)
            ~slot:(field q i f_slot) (action_of q i);
          pos.(p) <- i + 1;
          progress := true
        end
        else
          let id = field q i f_slot in
          let c = cmds.(id) in
          if
            (match c.c_touched with
            | [] -> false (* only >= 2-partition commands become barriers *)
            | lowest :: _ -> p = lowest)
            && List.for_all (fun q -> head_is_bar q id) c.c_touched
          then begin
            apply_barrier ~dom:p c;
            List.iter (fun q -> pos.(q) <- pos.(q) + 1) c.c_touched;
            progress := true
          end
    done;
    if not (finished ()) then
      if !progress then loop ()
      else
        (* Unreachable for queues built by [add_command]: barriers
           appear in LSN order in every touched queue, so the
           lowest-LSN blocked barrier's queues can always drain to it. *)
        raise Rendezvous_deadlock
  in
  loop ()

(* One spawn for the whole replay: each partition runs its queue on its
   own domain.  At a barrier every touched partition meets; the last to
   arrive applies the command while the others wait, so the command
   runs after each touched partition's earlier ops and before its
   later ones — the same per-slot order as the simulated scheduler. *)
let run_domains ~apply queues cmds =
  let meets = Domain_runner.rendezvous (Array.length cmds) in
  Domain_runner.run meets ~n:(Array.length queues) (fun p ->
      let q = queues.(p) in
      for i = 0 to q.len - 1 do
        if field q i f_kind <> k_bar then
          apply ~slot:(field q i f_slot) (action_of q i)
        else
          let id = field q i f_slot in
          let c = cmds.(id) in
          Domain_runner.meet meets id ~parties:c.c_parties
            (fun () -> List.iter (fun (slot, d) -> apply ~slot (Add d)) c.c_ops)
      done)

let run ?recorder ?(use_domains = false) ?on_step ~apply t =
  (* Recording and crash injection are deterministic-mode features. *)
  let domains =
    use_domains && Domain_runner.available
    && (match (recorder, on_step) with None, None -> true | _ -> false)
  in
  let cmds = Array.of_list (List.rev t.rev_cmds) in
  if domains then run_domains ~apply t.queues cmds
  else run_simulated ~recorder ~on_step ~apply t.queues cmds;
  {
    workers = Array.length t.queues;
    local_ops = t.local_ops;
    barrier_ops = t.barrier_ops;
    barriers = t.ncmds;
    used_domains = domains;
  }
