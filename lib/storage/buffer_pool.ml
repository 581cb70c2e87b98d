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
  mutable dirty : bool;
  mutable pins : int; (* > 0 means ineligible for eviction *)
  mutable last_use : int; (* LRU timestamp *)
  mutable prev_use : int; (* second-most-recent access (LRU-2); 0 = none *)
  mutable arrival : int; (* FIFO order *)
  mutable referenced : bool; (* Clock bit *)
}

type t = {
  disk : Disk.t;
  capacity : int;
  policy : policy;
  frames : (int, frame) Hashtbl.t; (* pid -> frame *)
  mutable tick : int;
  clock_hand : int Queue.t; (* pids in sweep order for Clock (front = hand) *)
  mutable dirtied : int; (* clean->dirty transitions *)
  mutable writebacks : int;
  mutable dropped_dirty : int; (* dirty frames lost to drop_all *)
  mutable unpin_underflows : int; (* recorded, not raised: Pool_check reports *)
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
    dirtied = 0;
    writebacks = 0;
    dropped_dirty = 0;
    unpin_underflows = 0;
  }

let capacity t = t.capacity
let resident t = Hashtbl.length t.frames
let is_resident t pid = Hashtbl.mem t.frames pid

let env t = Disk.env t.disk

let write_back t frame =
  if frame.dirty then begin
    (* Bypass Disk.write's copy-in charge duplication: the pool is the one
       charging, via a normal charged random write. *)
    Disk.write t.disk ~mode:Disk.Rand frame.pid frame.data;
    frame.dirty <- false;
    t.writebacks <- t.writebacks + 1
  end

(* Pinned frames are never eviction victims. *)
let evict_one t =
  let any_unpinned =
    Hashtbl.fold (fun _ f acc -> acc || f.pins = 0) t.frames false
  in
  if not any_unpinned then
    invalid_arg "Buffer_pool.evict_one: every frame is pinned";
  let victim_pid =
    match t.policy with
    | Random_replacement rng ->
      let pids =
        Hashtbl.fold
          (fun pid f acc -> if f.pins = 0 then pid :: acc else acc)
          t.frames []
      in
      let arr = Array.of_list pids in
      arr.(Mmdb_util.Xorshift.int rng (Array.length arr))
    | Lru ->
      let best = ref None in
      Hashtbl.iter
        (fun pid f ->
          if f.pins = 0 then
            match !best with
            | None -> best := Some (pid, f.last_use)
            | Some (_, lu) ->
              if f.last_use < lu then best := Some (pid, f.last_use))
        t.frames;
      (match !best with Some (pid, _) -> pid | None -> assert false)
    | Fifo ->
      let best = ref None in
      Hashtbl.iter
        (fun pid f ->
          if f.pins = 0 then
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
          if f.pins = 0 then
            let key = (f.prev_use, f.last_use) in
            match !best with
            | None -> best := Some (pid, key)
            | Some (_, k) -> if key < k then best := Some (pid, key))
        t.frames;
      (match !best with Some (pid, _) -> pid | None -> assert false)
    | Clock ->
      (* Classic second-chance sweep over a rotating queue (front is the
         hand): referenced frames lose their bit and rotate to the back,
         pinned frames keep their bit and rotate (they rejoin the scan
         once unpinned), and the victim is simply not re-enqueued.
         Terminates: some frame is unpinned, and its reference bit
         survives at most one full rotation. *)
      let rec sweep () =
        match Queue.take_opt t.clock_hand with
        | None -> assert false (* every resident pid is enqueued *)
        | Some pid -> (
          match Hashtbl.find_opt t.frames pid with
          | None -> sweep () (* stale entry for an already-evicted pid *)
          | Some f ->
            if f.pins > 0 then begin
              Queue.push pid t.clock_hand;
              sweep ()
            end
            else if f.referenced then begin
              f.referenced <- false;
              Queue.push pid t.clock_hand;
              sweep ()
            end
            else pid)
      in
      sweep ()
  in
  let frame = Hashtbl.find t.frames victim_pid in
  write_back t frame;
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
    (* Frame rot: a resident clean frame can pick up a bit flip between
       accesses (cosmic-ray model).  Dirty frames are never rotted — the
       divergence from disk would be indistinguishable from legitimate
       updates and write-back would launder the corruption. *)
    let plan = Disk.faults t.disk in
    if Fault_plan.is_active plan && not frame.dirty then begin
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
        dirty = false;
        pins = 0;
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

let mark_dirty t pid =
  match Hashtbl.find_opt t.frames pid with
  | Some frame ->
    if not frame.dirty then begin
      frame.dirty <- true;
      t.dirtied <- t.dirtied + 1
    end
  | None -> invalid_arg "Buffer_pool.mark_dirty: page not resident"

let pin t pid =
  let data = get t pid in
  let frame = Hashtbl.find t.frames pid in
  frame.pins <- frame.pins + 1;
  data

let unpin t pid =
  match Hashtbl.find_opt t.frames pid with
  | Some frame when frame.pins > 0 -> frame.pins <- frame.pins - 1
  | Some _ | None ->
    (* Protocol violation; recorded for the sanitizer rather than raised,
       so an audit can report it alongside other findings. *)
    t.unpin_underflows <- t.unpin_underflows + 1

let pin_count t pid =
  match Hashtbl.find_opt t.frames pid with
  | Some frame -> frame.pins
  | None -> 0

let flush t pid =
  match Hashtbl.find_opt t.frames pid with
  | Some frame -> write_back t frame
  | None -> ()

let flush_all t = Hashtbl.iter (fun _ frame -> write_back t frame) t.frames

let drop_all t =
  Hashtbl.iter
    (fun _ frame ->
      if frame.dirty then t.dropped_dirty <- t.dropped_dirty + 1)
    t.frames;
  Hashtbl.reset t.frames;
  Queue.clear t.clock_hand

(* Verify clean frames against the disk image and reload any that have
   rotted.  Dirty frames are skipped: they are *supposed* to diverge.
   Pids are visited in sorted order so repair charges are deterministic
   across OCaml versions (Hashtbl iteration order is not). *)
let scrub t =
  let plan = Disk.faults t.disk in
  let repaired = ref 0 in
  Hashtbl.fold
    (fun pid f acc -> if not f.dirty then (pid, f) :: acc else acc)
    t.frames []
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

type stats = {
  dirtied : int;
  writebacks : int;
  dropped_dirty : int;
  dirty_resident : int;
  pinned_pages : (int * int) list;
  unpin_underflows : int;
}

let stats t =
  let dirty_resident =
    Hashtbl.fold (fun _ f acc -> if f.dirty then acc + 1 else acc) t.frames 0
  in
  let pinned_pages =
    Hashtbl.fold
      (fun pid f acc -> if f.pins > 0 then (pid, f.pins) :: acc else acc)
      t.frames []
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  in
  {
    dirtied = t.dirtied;
    writebacks = t.writebacks;
    dropped_dirty = t.dropped_dirty;
    dirty_resident;
    pinned_pages;
    unpin_underflows = t.unpin_underflows;
  }
