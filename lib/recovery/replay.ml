(* Partitioned parallel redo.  See replay.mli for the scheduling
   contract; the short version: every op, including each op of a
   cross-partition command, replays in log order within its slot's
   partition, and the simulated and domains modes produce the same
   final state because per-slot order is identical in both. *)

type action = Set of int | Add of int

type stats = {
  workers : int;
  local_ops : int;
  barrier_ops : int;
  barriers : int;
  used_domains : bool;
}

(* One partition's queue: a growable flat int array, [stride] ints per
   entry.  An entry is one op: kind [k_set] or [k_add], with its slot
   and after-image or delta. *)
type queue = { mutable data : int array; mutable len : int }

let stride = 4
let f_kind = 0
let f_slot = 1
let f_arg = 2
let f_txn = 3
let k_set = 0
let k_add = 1

type t = {
  part : int -> int;
  queues : queue array;
  mutable ncmds : int;
  mutable local_ops : int;
  mutable barrier_ops : int;
}

let create ~workers ~partition_of =
  if workers <= 0 then invalid_arg "Replay.create: workers <= 0";
  {
    part = (fun slot -> ((partition_of slot mod workers) + workers) mod workers);
    queues = Array.init workers (fun _ -> { data = [||]; len = 0 });
    ncmds = 0;
    local_ops = 0;
    barrier_ops = 0;
  }

let push q ~kind ~slot ~arg ~txn =
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
  q.len <- q.len + 1

let push_op t ~txn ~slot action =
  let kind, arg = match action with Set v -> (k_set, v) | Add d -> (k_add, d) in
  push t.queues.(t.part slot) ~kind ~slot ~arg ~txn

let add_op t ~txn ~slot action =
  t.local_ops <- t.local_ops + 1;
  push_op t ~txn ~slot action

(* Every op of a command is an [Add] on one slot, and every slot belongs
   to one partition, so a command splits by partition: each op joins
   its own slot's queue.  Each queue replays in LSN order, so per-slot
   order holds with no synchronisation between partitions.  A command
   spanning partitions is counted, with its ops, as cross-partition:
   the recovery model prices those ops serially. *)
let add_command t ~txn ops =
  match ops with
  | [] -> ()
  | (first, _) :: rest ->
    let p = t.part first in
    if List.for_all (fun (slot, _) -> t.part slot = p) rest then
      List.iter (fun (slot, d) -> add_op t ~txn ~slot (Add d)) ops
    else begin
      t.ncmds <- t.ncmds + 1;
      List.iter
        (fun (slot, d) ->
          t.barrier_ops <- t.barrier_ops + 1;
          push_op t ~txn ~slot (Add d))
        ops
    end

let field q i f = q.data.((i * stride) + f)

let action_of q i =
  let arg = field q i f_arg in
  if field q i f_kind = k_set then Set arg else Add arg

(* Deterministic round-robin interleaving of the partition queues, one
   op per partition per round.  Emits the lock-protocol trace
   (Grant/Write/Release per applied op, stamped with the partition as
   the acting domain) when a recorder is armed, and calls [on_step]
   after every applied op so the store can crash mid-replay. *)
let run_simulated ~recorder ~on_step ~apply queues =
  let pos = Array.make (Array.length queues) 0 in
  let remaining = ref (Array.fold_left (fun n q -> n + q.len) 0 queues) in
  let tick = ref 0 in
  let stamp () =
    incr tick;
    float_of_int !tick *. 1e-6
  in
  while !remaining > 0 do
    for p = 0 to Array.length queues - 1 do
      let q = queues.(p) and i = pos.(p) in
      if i < q.len then begin
        let slot = field q i f_slot and txn = field q i f_txn in
        (match recorder with
        | None -> ()
        | Some _ ->
            Schedule.emit recorder ~at:(stamp ()) ~key:slot ~domain:p ~txn
              (Schedule.Grant { deps = [] });
            Schedule.emit recorder ~at:(stamp ()) ~key:slot ~domain:p ~txn
              Schedule.Write;
            Schedule.emit recorder ~at:(stamp ()) ~key:slot ~domain:p ~txn
              Schedule.Release);
        apply ~slot (action_of q i);
        pos.(p) <- i + 1;
        decr remaining;
        match on_step with Some f -> f () | None -> ()
      end
    done
  done

(* One spawn for the whole replay: each partition runs its queue on its
   own domain, touching only its own pages. *)
let run_domains ~apply queues =
  Domain_runner.run ~n:(Array.length queues) (fun p ->
      let q = queues.(p) in
      for i = 0 to q.len - 1 do
        apply ~slot:(field q i f_slot) (action_of q i)
      done)

let run ?recorder ?(use_domains = false) ?on_step ~apply t =
  (* Recording and crash injection are deterministic-mode features. *)
  let domains =
    use_domains
    && (match (recorder, on_step) with None, None -> true | _ -> false)
  in
  if domains then run_domains ~apply t.queues
  else run_simulated ~recorder ~on_step ~apply t.queues;
  {
    workers = Array.length t.queues;
    local_ops = t.local_ops;
    barrier_ops = t.barrier_ops;
    barriers = t.ncmds;
    used_domains = domains;
  }
