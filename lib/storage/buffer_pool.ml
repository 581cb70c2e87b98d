module Fault = Mmdb_fault.Fault
module Fault_plan = Mmdb_fault.Fault_plan

type policy =
  | Random_replacement of Mmdb_util.Xorshift.t
  | Lru
  | Clock
  | Fifo
  | Lru_2

type frame = {
  pid : int;
  data : bytes;
  mutable last_use : int; (* LRU timestamp *)
  mutable prev_use : int; (* second-most-recent access (LRU-2); 0 = none *)
  arrival : int; (* FIFO order *)
  mutable referenced : bool; (* Clock bit *)
}

type t = {
  disk : Disk.t;
  capacity : int;
  policy : policy;
  frames : (int, frame) Hashtbl.t; (* pid -> frame *)
  mutable tick : int;
  clock_hand : int Queue.t; (* pids in sweep order for Clock (front = hand) *)
}

let create ~disk ~capacity policy =
  if capacity <= 0 then invalid_arg "Buffer_pool.create: capacity <= 0";
  {
    disk;
    capacity;
    policy;
    frames = Hashtbl.create (2 * capacity);
    tick = 0;
    clock_hand = Queue.create ();
  }

let resident t = Hashtbl.length t.frames
let is_resident t pid = Hashtbl.mem t.frames pid

let env t = Disk.env t.disk

(* Frames are never modified, so eviction just discards the victim. *)
let evict_one t =
  let victim_pid =
    match t.policy with
    | Random_replacement rng ->
      let pids = Hashtbl.fold (fun pid _ acc -> pid :: acc) t.frames [] in
      let arr = Array.of_list pids in
      arr.(Mmdb_util.Xorshift.int rng (Array.length arr))
    | Lru ->
      let best = ref None in
      Hashtbl.iter
        (fun pid f ->
          match !best with
          | None -> best := Some (pid, f.last_use)
          | Some (_, lu) -> if f.last_use < lu then best := Some (pid, f.last_use))
        t.frames;
      (match !best with Some (pid, _) -> pid | None -> assert false)
    | Fifo ->
      let best = ref None in
      Hashtbl.iter
        (fun pid f ->
          match !best with
          | None -> best := Some (pid, f.arrival)
          | Some (_, a) -> if f.arrival < a then best := Some (pid, f.arrival))
        t.frames;
      (match !best with Some (pid, _) -> pid | None -> assert false)
    | Lru_2 ->
      (* Rank by second-most-recent access; once-touched pages (prev_use
         = 0) sort below everything, ties broken by last_use. *)
      let best = ref None in
      Hashtbl.iter
        (fun pid f ->
          let key = (f.prev_use, f.last_use) in
          match !best with
          | None -> best := Some (pid, key)
          | Some (_, k) -> if key < k then best := Some (pid, key))
        t.frames;
      (match !best with Some (pid, _) -> pid | None -> assert false)
    | Clock ->
      (* Classic second-chance sweep over a rotating queue (front is the
         hand): referenced frames lose their bit and rotate to the back,
         and the victim is simply not re-enqueued.  Terminates: a
         reference bit survives at most one full rotation. *)
      let rec sweep () =
        (* The queue holds exactly the resident pids. *)
        let pid = Queue.take t.clock_hand in
        let f = Hashtbl.find t.frames pid in
        if f.referenced then begin
          f.referenced <- false;
          Queue.push pid t.clock_hand;
          sweep ()
        end
        else pid
      in
      sweep ()
  in
  Hashtbl.remove t.frames victim_pid

let touch t frame =
  t.tick <- t.tick + 1;
  frame.prev_use <- frame.last_use;
  frame.last_use <- t.tick;
  frame.referenced <- true

let get t pid =
  match Hashtbl.find_opt t.frames pid with
  | Some frame ->
    (env t).Env.counters.Counters.pool_hits <-
      (env t).Env.counters.Counters.pool_hits + 1;
    (* Frame rot: a resident frame can pick up a bit flip between
       accesses (cosmic-ray model); {!scrub} finds it against the disk. *)
    let plan = Disk.faults t.disk in
    if Fault_plan.is_active plan then begin
      match Fault_plan.draw plan Fault.Pool_frame with
      | Some (Fault.Bit_flip_rest | Fault.Bit_flip_read) ->
        let bit = Fault_plan.rand_int plan (8 * Bytes.length frame.data) in
        let i = bit / 8 in
        Bytes.set frame.data i
          (Char.chr (Char.code (Bytes.get frame.data i) lxor (1 lsl (bit mod 8))));
        Fault_plan.note_injected plan ~code:"FAULT002" ~site:"pool.frame"
          (Printf.sprintf "frame %d bit %d flipped in memory" frame.pid bit)
      | Some (Fault.Torn_write | Fault.Io_transient _ | Fault.Battery_droop _)
      | None -> ()
    end;
    touch t frame;
    frame.data
  | None ->
    (env t).Env.counters.Counters.faults <-
      (env t).Env.counters.Counters.faults + 1;
    if Hashtbl.length t.frames >= t.capacity then evict_one t;
    let data = Disk.read t.disk ~mode:Disk.Rand pid in
    t.tick <- t.tick + 1;
    let frame =
      {
        pid;
        data;
        last_use = 0;
        prev_use = 0;
        arrival = t.tick;
        referenced = false;
      }
    in
    touch t frame;
    Hashtbl.replace t.frames pid frame;
    (match t.policy with
    | Clock -> Queue.push pid t.clock_hand
    | Random_replacement _ | Lru | Fifo | Lru_2 -> ());
    data

(* Verify frames against the disk image and reload any that have rotted.
   Pids are visited in sorted order so repair charges are deterministic
   across OCaml versions (Hashtbl iteration order is not). *)
let scrub t =
  let plan = Disk.faults t.disk in
  let repaired = ref 0 in
  Hashtbl.fold (fun pid f acc -> (pid, f) :: acc) t.frames []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  |> List.iter (fun (pid, f) ->
         let stored = Disk.read_nocharge t.disk pid in
         if not (Bytes.equal f.data stored) then begin
           Fault_plan.note_detected plan ~code:"FAULT002" ~site:"pool.frame"
             (Printf.sprintf "frame %d diverges from disk" pid);
           let fresh = Disk.read t.disk ~mode:Disk.Rand pid in
           Bytes.blit fresh 0 f.data 0 (Bytes.length f.data);
           Fault_plan.note_repaired plan ~code:"FAULT002" ~site:"pool.frame"
             (Printf.sprintf "frame %d reloaded from disk" pid);
           incr repaired
         end);
  !repaired
