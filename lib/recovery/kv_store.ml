module Fault = Mmdb_fault.Fault
module Fault_plan = Mmdb_fault.Fault_plan

(* Simulated time of one snapshot page read or write. *)
let page_io_time = 10e-3

type t = {
  records_per_page : int;
  recorder : Schedule.recorder option;
  mem : int array; (* volatile *)
  mem_lsn : int array; (* volatile: per-page max LSN applied to mem *)
  snapshot : int array; (* "disk": survives crash *)
  snap_sums : int array; (* per-page CRC of the intended snapshot page *)
  snap_lsn : int array;
  (* "disk" metadata: per-page redo high-water of the stored image.  A
     log record with lsn <= snap_lsn.(p) touching page p is already in
     the snapshot, so redo must skip it — the gate that makes replaying
     non-idempotent command records safe. *)
  resolved_lsn : int array;
  (* "disk" metadata: per-page fully-resolved floor, advanced only by
     the end-of-recovery write-back.  Records at or below it are both
     redone (winners) and undone (losers) in the stored image, so a
     recovery that crashes and restarts never double-applies either
     phase. *)
  stable : Stable_memory.t; (* dirty-page table host *)
  faults : Fault_plan.t;
  mutable scrambled : bool;
}

let npages_of ~nrecords ~records_per_page =
  (nrecords + records_per_page - 1) / records_per_page

let page_sum t page =
  let lo = page * t.records_per_page in
  let hi = min (Array.length t.snapshot) (lo + t.records_per_page) in
  Mmdb_util.Checksum.crc32_ints t.snapshot ~pos:lo ~len:(hi - lo)

let create ?faults ?recorder ~nrecords
    ~records_per_page ~stable () =
  if nrecords <= 0 then invalid_arg "Kv_store.create: nrecords <= 0";
  if records_per_page <= 0 then
    invalid_arg "Kv_store.create: records_per_page <= 0";
  let npages = npages_of ~nrecords ~records_per_page in
  let t =
    {
      records_per_page;
      recorder;
      mem = Array.make nrecords 0;
      (* min_int = "minus infinity": no record has touched the page *)
      mem_lsn = Array.make npages min_int;
      snapshot = Array.make nrecords 0;
      snap_sums = Array.make npages 0;
      snap_lsn = Array.make npages min_int;
      resolved_lsn = Array.make npages min_int;
      stable;
      faults = (match faults with Some f -> f | None -> Fault_plan.none ());
      scrambled = false;
    }
  in
  for p = 0 to Array.length t.snap_sums - 1 do
    t.snap_sums.(p) <- page_sum t p
  done;
  t

let nrecords t = Array.length t.mem

let npages t =
  npages_of ~nrecords:(Array.length t.mem)
    ~records_per_page:t.records_per_page

let check_slot t slot =
  if slot < 0 || slot >= Array.length t.mem then
    invalid_arg (Printf.sprintf "Kv_store: slot %d out of range" slot)

let get ?txn ?(domain = 0) t slot =
  check_slot t slot;
  if t.scrambled then
    invalid_arg "Kv_store.get: memory lost in crash (recover first)";
  (match txn with
  | Some txn -> Schedule.emit t.recorder ~key:slot ~domain ~txn Schedule.Read
  | None -> ());
  t.mem.(slot)

(* Degraded read-only service: read the last checkpoint image directly.
   The snapshot lives on the simulated disk and survives a crash, so
   these reads stay available while recovery replay is in flight —
   values are stale as of the last completed checkpoint sweep. *)
let snapshot_read t slot =
  check_slot t slot;
  t.snapshot.(slot)

let page_of t slot = slot / t.records_per_page

let apply_update ?txn ?(domain = 0) t ~lsn ~slot ~value =
  check_slot t slot;
  t.mem.(slot) <- value;
  (match txn with
  | Some txn ->
    Schedule.emit t.recorder ~key:slot ~domain ~txn Schedule.Write
  | None -> ());
  let page = page_of t slot in
  if lsn > t.mem_lsn.(page) then t.mem_lsn.(page) <- lsn;
  match Stable_memory.table_get t.stable ~key:page with
  | Some _ -> () (* already dirty; first-LSN already recorded *)
  | None -> Stable_memory.table_put t.stable ~key:page ~value:lsn

type checkpoint_stats = { pages_flushed : int; duration : float }

(* Write one dirty page to the snapshot, recording the checksum of the
   intended image.  A rule at the Snapshot site can rot the stored page
   (bit flip at rest): the recorded sum then disagrees with the stored
   data, which is how recovery detects the damage. *)
let write_snapshot_page t page =
  let lo = page * t.records_per_page in
  let hi = min (Array.length t.mem) (lo + t.records_per_page) in
  Array.blit t.mem lo t.snapshot lo (hi - lo);
  t.snap_sums.(page) <-
    Mmdb_util.Checksum.crc32_ints t.mem ~pos:lo ~len:(hi - lo);
  t.snap_lsn.(page) <- t.mem_lsn.(page);
  if Fault_plan.is_active t.faults then begin
    match Fault_plan.draw t.faults Fault.Snapshot with
    | Some (Fault.Bit_flip_rest | Fault.Bit_flip_read) ->
      let slot = lo + Fault_plan.rand_int t.faults (hi - lo) in
      let bit = Fault_plan.rand_int t.faults 31 in
      t.snapshot.(slot) <- t.snapshot.(slot) lxor (1 lsl bit);
      Fault_plan.note_injected t.faults ~code:"FAULT002" ~site:"snapshot"
        (Printf.sprintf "snapshot page %d slot %d bit %d flipped at rest"
           page slot bit)
    | Some (Fault.Torn_write | Fault.Io_transient _ | Fault.Battery_droop _)
    | None -> ()
  end

(* Fuzzy checkpoint.  Pages are swept in sorted order (deterministic
   across OCaml versions; Hashtbl iteration order is not).  When [now]
   and [deadline] are given, the sweep is cut short once the next page
   write would finish past the deadline — a crash mid-checkpoint.  Pages
   not reached keep their dirty-table entries, so redo still covers
   them. *)
let checkpoint ?now ?deadline t =
  let dirty =
    Stable_memory.table_fold t.stable ~init:[] ~f:(fun acc ~key ~value ->
        ignore value;
        key :: acc)
    |> List.sort compare
  in
  let written = ref 0 in
  let cutoff =
    match (now, deadline) with
    | Some n, Some d -> Some (n, d)
    | (Some _ | None), (Some _ | None) -> None
  in
  List.iter
    (fun page ->
      let fits =
        match cutoff with
        | None -> true
        | Some (n, d) ->
          n +. (float_of_int (!written + 1) *. page_io_time) <= d
      in
      if fits then begin
        write_snapshot_page t page;
        Stable_memory.table_remove t.stable ~key:page;
        incr written
      end)
    dirty;
  { pages_flushed = !written; duration = float_of_int !written *. page_io_time }

let dirty_pages t =
  Stable_memory.table_fold t.stable ~init:0 ~f:(fun acc ~key:_ ~value:_ ->
      acc + 1)

let recovery_start_lsn t =
  Stable_memory.table_fold t.stable ~init:None ~f:(fun acc ~key:_ ~value ->
      match acc with
      | None -> Some value
      | Some m -> Some (min m value))

let crash t =
  (* Volatile contents are gone; make any premature read fail loudly. *)
  Array.fill t.mem 0 (Array.length t.mem) min_int;
  Array.fill t.mem_lsn 0 (Array.length t.mem_lsn) min_int;
  t.scrambled <- true

type recover_stats = {
  start_lsn : int;
  records_scanned : int;
  redo_applied : int;
  undo_applied : int;
  snapshot_pages_read : int;
  pages_rebuilt : int;
  recovery_time : float;
  workers : int;
  local_value_ops : int;
  local_command_ops : int;
  barrier_ops : int;
  barriers : int;
  pages_written_back : int;
  log_bytes_scanned : int;
  used_domains : bool;
}

exception Crashed_during_recovery

(* The analysis pass's transaction table: open addressing over flat
   arrays, so no lookup or insert allocates.  [state] marks a cell free,
   open (lowest LSN so far in [low]) or terminated: no id or LSN is a
   sentinel.  An id's low bits, xored with a Fibonacci hash of its high
   bits, pick its cell, so consecutive ids fill consecutive cells and ids
   equal below the mask still spread.  Kept at most half full. *)
module Txn_table = struct
  type t = { mutable ids : int array; mutable low : int array;
             mutable state : Bytes.t; mutable bits : int; mutable count : int }

  let free = '\000' and open_ = '\001' and terminated = '\002'

  let create bits = { ids = Array.make (1 lsl bits) 0; low = Array.make (1 lsl bits) 0;
                      state = Bytes.make (1 lsl bits) free; bits; count = 0 }

  let rec probe t id i =
    if Bytes.get t.state i = free || t.ids.(i) = id then i
    else probe t id ((i + 1) land (Array.length t.ids - 1))

  let find t id =
    let hi = ((id lsr t.bits) * 0x4F1BBCDCBFA53E0B) lsr (Sys.int_size - t.bits) in
    probe t id ((id lxor hi) land (Array.length t.ids - 1))

  let rec set t id st lsn =
    let i = find t id in
    if Bytes.get t.state i = free && 2 * (t.count + 1) > Array.length t.ids then begin
      let ids = t.ids and low = t.low and state = t.state and g = create (t.bits + 1) in
      t.ids <- g.ids; t.low <- g.low; t.state <- g.state; t.bits <- g.bits; t.count <- 0;
      Bytes.iteri (fun j c -> if c <> free then set t ids.(j) c low.(j)) state;
      set t id st lsn
    end
    else begin
      if Bytes.get t.state i = free then t.count <- t.count + 1;
      t.ids.(i) <- id; t.low.(i) <- lsn; Bytes.set t.state i st
    end

  (* A record of [id] at [lsn] opens it or lowers its LSN. *)
  let note t id lsn =
    let i = find t id in
    let c = Bytes.get t.state i in
    if c = free then set t id open_ lsn else if c = open_ && lsn < t.low.(i) then t.low.(i) <- lsn

  let is_open t id = Bytes.get t.state (find t id) = open_

  let min_open t =
    let m = ref max_int in
    Bytes.iteri (fun i c -> if c = open_ then m := Int.min !m t.low.(i)) t.state;
    !m
end

let recover ?(workers = 1) ?(use_domains = false) ?crash_after_steps
    ?replay_recorder t ~log =
  if workers <= 0 then invalid_arg "Kv_store.recover: workers <= 0";
  (* Load the snapshot, verifying each page against its recorded sum
     when faults are armed.  A corrupt page is detected (FAULT002),
     reset to its initial state, and rebuilt by replaying the *whole*
     log for its slots (FAULT009) — the snapshot copy is untrusted, so
     redo for that page cannot start at the checkpoint LSN. *)
  Array.blit t.snapshot 0 t.mem 0 (Array.length t.mem);
  Array.blit t.snap_lsn 0 t.mem_lsn 0 (Array.length t.mem_lsn);
  t.scrambled <- false;
  let npages = npages t in
  let corrupt = Array.make npages false in
  let rebuilt = ref 0 in
  (* Snapshot-time replay gates.  Redo applies a record to a page only
     above the page's snapshot high-water (so non-idempotent command
     deltas are never double-applied); undo reverses a loser's record
     only above the page's resolved floor (so a recovery that already
     wrote the page back — then crashed and restarted — does not undo
     it twice).  A corrupt page loses both floors: its slots rebuild
     from the whole log. *)
  let redo_gate = Array.copy t.snap_lsn in
  let undo_gate = Array.copy t.resolved_lsn in
  if Fault_plan.is_active t.faults then
    for page = 0 to npages - 1 do
      if page_sum t page <> t.snap_sums.(page) then begin
        Fault_plan.note_detected t.faults ~code:"FAULT002" ~site:"snapshot"
          (Printf.sprintf "snapshot page %d checksum mismatch" page);
        corrupt.(page) <- true;
        incr rebuilt;
        let lo = page * t.records_per_page in
        let hi = min (Array.length t.mem) (lo + t.records_per_page) in
        Array.fill t.mem lo (hi - lo) 0;
        t.mem_lsn.(page) <- min_int;
        redo_gate.(page) <- min_int;
        undo_gate.(page) <- min_int
      end
    done;
  (* Analysis pass.  Aborted transactions logged their own compensating
     updates before the Abort record (ARIES-style), so like committed
     transactions they are "terminated": redo replays them forward and
     undo must skip them.  Every other transaction is a loser, mapped to
     the lowest LSN of its records.  A merged log can put a Commit ahead
     of the transaction's updates, so a terminated transaction is never
     entered again.  The pass also counts each partition's ops above
     their page's redo gate: no more are pushed, so no queue grows. *)
  let txns = Txn_table.create 8 in
  let part_of_page = Array.init npages (fun page -> page mod workers) in
  let part slot = part_of_page.(page_of t slot) in
  let capacity = Array.make workers 0 in
  let count lsn slot =
    let page = page_of t slot in
    let p = part_of_page.(page) in
    if lsn > redo_gate.(page) then capacity.(p) <- capacity.(p) + 1
  in
  List.iter
    (fun r ->
      match r with
      | Log_record.Commit { txn; _ } | Log_record.Abort { txn; _ } ->
        Txn_table.set txns txn Txn_table.terminated 0
      | Log_record.Begin { txn; lsn } -> Txn_table.note txns txn lsn
      | Log_record.Update { txn; lsn; slot; _ } ->
        Txn_table.note txns txn lsn;
        count lsn slot
      | Log_record.Command { txn; lsn; ops } ->
        Txn_table.note txns txn lsn;
        List.iter (fun (slot, _) -> count lsn slot) ops
      | Log_record.Ckpt_begin _ | Log_record.Ckpt_end _ -> ())
    log;
  (* The scan starts at the oldest of (a) the dirty-page table's minimum
     first-update LSN (§5.5: "the oldest entry in the table determines the
     point in the log from which recovery should commence") and (b) the
     first record of any transaction that never terminated (the
     active-transaction low-water mark, needed for undo). *)
  let table_start =
    match recovery_start_lsn t with Some l -> l | None -> max_int
  in
  let scan_start = min table_start (Txn_table.min_open txns) in
  (* Unified progress counter for restart-crash injection: every redo
     apply, undo apply, and write-back page write is one step.  Nothing
     durable changes before the write-back phase, so a crash at any
     step leaves a state the next recovery handles. *)
  let steps = ref 0 in
  let step () =
    incr steps;
    match crash_after_steps with
    | Some n when !steps >= n -> raise Crashed_during_recovery
    | Some _ | None -> ()
  in
  let scanned = ref 0 in
  let scan_bytes = ref 0 in
  let value_ops = ref 0 in
  (* Pages this recovery applies to (the write-back worklist).  The
     in-memory high-water is raised as each record is planned: nothing
     reads it before write-back. *)
  let touched = Array.make npages false in
  let touch page lsn =
    touched.(page) <- true;
    if lsn > t.mem_lsn.(page) then t.mem_lsn.(page) <- lsn
  in
  let plan = Replay.create ~capacity ~partition_of:part in
  (* Redo/undo pass.  Every eligible update from the recovery start
     point (plus any-LSN records touching a page being rebuilt) goes
     into the replay plan, partitioned by page.  Eligibility is judged
     against the snapshot-time gates captured above — the arrays
     themselves move during replay.  Loser records, all at or above
     [scan_start], are collected newest first for undo. *)
  let undo_list = ref [] in
  List.iter
    (fun r ->
      let in_scan = Log_record.lsn r >= scan_start in
      let rebuilds =
        (not in_scan) && !rebuilt > 0
        &&
        match r with
        | Log_record.Update { slot; _ } -> corrupt.(page_of t slot)
        | Log_record.Command { ops; _ } ->
          List.exists (fun (slot, _) -> corrupt.(page_of t slot)) ops
        | Log_record.Begin _ | Log_record.Commit _ | Log_record.Abort _
        | Log_record.Ckpt_begin _ | Log_record.Ckpt_end _ -> false
      in
      if in_scan || rebuilds then begin
        incr scanned;
        scan_bytes :=
          !scan_bytes + Log_record.size_bytes ~compressed:false r;
        match r with
        | Log_record.Update { txn; lsn; slot; new_value; _ } ->
          if Txn_table.is_open txns txn then undo_list := r :: !undo_list;
          let page = page_of t slot in
          if lsn > redo_gate.(page) then begin
            incr value_ops;
            touch page lsn;
            Replay.add_op plan ~txn ~slot Replay.Set new_value
          end
        | Log_record.Command { txn; lsn; ops } ->
          if Txn_table.is_open txns txn then undo_list := r :: !undo_list;
          let eligible =
            List.filter (fun (slot, _) -> lsn > redo_gate.(page_of t slot))
              ops
          in
          List.iter (fun (slot, _) -> touch (page_of t slot) lsn) eligible;
          Replay.add_command plan ~txn eligible
        | Log_record.Begin _ | Log_record.Commit _ | Log_record.Abort _
        | Log_record.Ckpt_begin _ | Log_record.Ckpt_end _ -> ()
      end)
    log;
  let on_step =
    match crash_after_steps with Some _ -> Some step | None -> None
  in
  let rstats =
    Replay.run ?recorder:replay_recorder ~use_domains ?on_step
      ~apply:(fun ~slot kind arg ->
        match kind with
        | Replay.Set -> t.mem.(slot) <- arg
        | Replay.Add -> t.mem.(slot) <- t.mem.(slot) + arg)
      plan
  in
  (* Undo phase: reverse records of transactions that never terminated,
     newest first (all such records are >= scan_start by construction),
     gated per page so a restarted recovery skips already-resolved
     work.  Serial: undo order matters and volumes are small. *)
  let undo = ref 0 in
  let emit_undo ~txn ~slot =
    match replay_recorder with
    | None -> ()
    | Some _ ->
      Schedule.emit replay_recorder ~key:slot ~txn
        (Schedule.Grant { deps = [] });
      Schedule.emit replay_recorder ~key:slot ~txn Schedule.Write;
      Schedule.emit replay_recorder ~key:slot ~txn Schedule.Release
  in
  let undo_op ~txn ~lsn ~slot value =
    let page = page_of t slot in
    if lsn > undo_gate.(page) then begin
      emit_undo ~txn ~slot;
      t.mem.(slot) <- value;
      touch page lsn;
      incr undo;
      step ()
    end
  in
  List.iter
    (fun r ->
      match r with
      | Log_record.Update { txn; lsn; slot; old_value; _ } ->
        undo_op ~txn ~lsn ~slot old_value
      | Log_record.Command { txn; lsn; ops } ->
        List.iter
          (fun (slot, delta) -> undo_op ~txn ~lsn ~slot (t.mem.(slot) - delta))
          ops
      | Log_record.Begin _ | Log_record.Commit _ | Log_record.Abort _
      | Log_record.Ckpt_begin _ | Log_record.Ckpt_end _ -> ())
    !undo_list;
  (* Write-back: re-checkpoint every page recovery touched or rebuilt,
     advancing both durable floors, so (a) a crash immediately after
     recovery loses nothing, and (b) a crash *during* this loop leaves
     each written page self-describing — the next recovery skips exactly
     the records it already holds.  Page order keeps the step numbering
     deterministic. *)
  let pages_written_back = ref 0 in
  for page = 0 to npages - 1 do
    if touched.(page) || corrupt.(page) then begin
      write_snapshot_page t page;
      t.resolved_lsn.(page) <- t.mem_lsn.(page);
      if corrupt.(page) then
        Fault_plan.note_repaired t.faults ~code:"FAULT009" ~site:"snapshot"
          (Printf.sprintf "snapshot page %d rebuilt from log replay" page);
      incr pages_written_back;
      step ()
    end
  done;
  Stable_memory.table_clear t.stable;
  let cmd_local = rstats.Replay.local_ops - !value_ops in
  let cmd_barrier = rstats.Replay.barrier_ops in
  let terms =
    Mmdb_model.Recovery_model.replay_terms ~page_io_time
      ~log_page_bytes:4096 ~workers ~snapshot_pages:npages
      ~log_bytes:!scan_bytes ~local_value_ops:!value_ops
      ~local_command_ops:cmd_local ~serial_command_ops:cmd_barrier
      ~undo_ops:!undo ~writeback_pages:!pages_written_back
  in
  {
    start_lsn = (if scan_start = max_int then 0 else scan_start);
    records_scanned = !scanned;
    redo_applied = !value_ops + cmd_local + cmd_barrier;
    undo_applied = !undo;
    snapshot_pages_read = npages;
    pages_rebuilt = !rebuilt;
    recovery_time = Mmdb_model.Recovery_model.replay_seconds terms;
    workers;
    local_value_ops = !value_ops;
    local_command_ops = cmd_local;
    barrier_ops = cmd_barrier;
    barriers = rstats.Replay.barriers;
    pages_written_back = !pages_written_back;
    log_bytes_scanned = !scan_bytes;
    used_domains = rstats.Replay.used_domains;
  }

let balances t =
  if t.scrambled then
    invalid_arg "Kv_store.balances: memory lost in crash (recover first)";
  Array.copy t.mem
