(* Partitioned parallel redo.  See replay.mli for the scheduling
   contract; the short version: every op, including each op of a
   cross-partition command, replays in log order within its slot's
   partition, and the simulated and domains modes produce the same
   final state because per-slot order is identical in both. *)

type kind = Set | Add

type stats = {
  workers : int;
  local_ops : int;
  barrier_ops : int;
  barriers : int;
  used_domains : bool;
}

(* One partition's queue, allocated once at its capacity: [stride] ints
   per op, its slot shifted left once with the kind in bit 0 (0 = [Set],
   1 = [Add]), its after-image or delta, and its txn. *)
type queue = { data : int array; mutable len : int }

let stride = 3

type t = {
  part : int -> int;
  queues : queue array;
  mutable ncmds : int;
  mutable local_ops : int;
  mutable barrier_ops : int;
}

let create ~capacity ~partition_of =
  let workers = Array.length capacity in
  if workers = 0 then invalid_arg "Replay.create: no partitions";
  let part slot =
    let p = partition_of slot in
    if p >= 0 && p < workers then p else ((p mod workers) + workers) mod workers
  in
  {
    part;
    queues = Array.map (fun cap -> { data = Array.make (cap * stride) 0; len = 0 }) capacity;
    ncmds = 0;
    local_ops = 0;
    barrier_ops = 0;
  }

let push t ~txn ~slot kind arg =
  let q = t.queues.(t.part slot) in
  let base = q.len * stride in
  if base >= Array.length q.data then invalid_arg "Replay: queue over capacity";
  q.data.(base) <- (slot lsl 1) lor (match kind with Set -> 0 | Add -> 1);
  q.data.(base + 1) <- arg;
  q.data.(base + 2) <- txn;
  q.len <- q.len + 1

let add_op t ~txn ~slot kind arg =
  t.local_ops <- t.local_ops + 1;
  push t ~txn ~slot kind arg

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
      List.iter (fun (slot, d) -> add_op t ~txn ~slot Add d) ops
    else begin
      t.ncmds <- t.ncmds + 1;
      List.iter
        (fun (slot, d) ->
          t.barrier_ops <- t.barrier_ops + 1;
          push t ~txn ~slot Add d)
        ops
    end

(* Apply op [i] of [q]; its kind is an immediate, so nothing is
   allocated. *)
let apply_entry ~apply q i =
  let op = q.data.(i * stride) in
  apply ~slot:(op asr 1) (if op land 1 = 0 then Set else Add) q.data.((i * stride) + 1)

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
        (match recorder with
        | None -> ()
        | Some _ ->
            let slot = q.data.(i * stride) asr 1 and txn = q.data.((i * stride) + 2) in
            Schedule.emit recorder ~at:(stamp ()) ~key:slot ~domain:p ~txn
              (Schedule.Grant { deps = [] });
            Schedule.emit recorder ~at:(stamp ()) ~key:slot ~domain:p ~txn
              Schedule.Write;
            Schedule.emit recorder ~at:(stamp ()) ~key:slot ~domain:p ~txn
              Schedule.Release);
        apply_entry ~apply q i;
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
        apply_entry ~apply q i
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
