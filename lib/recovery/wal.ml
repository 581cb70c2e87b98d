module Fault = Mmdb_fault.Fault
module Fault_plan = Mmdb_fault.Fault_plan

type strategy =
  | Conventional
  | Group_commit
  | Partitioned of { devices : int }
  | Stable of { devices : int; capacity_bytes : int; compressed : bool }

type ticket = { tkt_txn : int; mutable completion : float option }

(* A simulator flushed its WAL yet a commit ticket never resolved —
   the flush contract is broken.  Typed, with the offending simulator
   and transaction. *)
exception Unresolved_ticket of { sim : string; txn : int }

let () =
  Printexc.register_printer (function
    | Unresolved_ticket { sim; txn } ->
      Some
        (Printf.sprintf
           "Wal.Unresolved_ticket { sim = %S; txn = %d } (commit ticket \
            unresolved after flush)"
           sim txn)
    | _ -> None)

type open_page = {
  mutable op_records : Log_record.t list; (* reversed *)
  mutable op_bytes : int;
  mutable op_tickets : (ticket * int list) list; (* ticket, txn deps *)
  mutable op_page_dep : float;
      (* completion of the page holding earlier records of a transaction
         that straddles into this page: this page must not be issued (and
         so cannot become durable) before its predecessor — §5.2's
         topological ordering applied within a transaction.  Without it,
         a crash could preserve a straddler's commit record while its
         update records are still in flight on another device. *)
}

(* Where appended records go first: the open buffer page, or, for the
   Stable strategy, battery-backed stable memory. *)
type sink = Pages | In_stable of Stable_memory.t

type t = {
  strat : strategy;
  page_size : int;
  devices : Log_device.t array;
  mutable next_device : int;
  mutable page : open_page;
  sink : sink;
  compressed : bool;
  faults : Fault_plan.t;
  strict : bool; (* chain straddling pages; see [append_record] *)
  txn_durable : (int, float) Hashtbl.t;
  mutable buffered : Log_record.t list; (* reversed: never-flushed oracle *)
  mutable last_at : float;
  mutable stable_last_commit : float; (* monotone stable commit stamps *)
}

let fresh_page () =
  { op_records = []; op_bytes = 0; op_tickets = []; op_page_dep = 0.0 }

let create ?(page_write_time = 10e-3) ?(page_bytes = 4096) ?faults ?breaker
    ?(strict_page_order = false) ~clock strat =
  let faults =
    match faults with Some f -> f | None -> Fault_plan.none ()
  in
  let ndev, sink, compressed =
    match strat with
    | Conventional | Group_commit -> (1, Pages, false)
    | Partitioned { devices } ->
      if devices <= 0 then invalid_arg "Wal: devices <= 0";
      (devices, Pages, false)
    | Stable { devices; capacity_bytes; compressed } ->
      if devices <= 0 then invalid_arg "Wal: devices <= 0";
      (devices, In_stable (Stable_memory.create ~capacity_bytes), compressed)
  in
  {
    strat;
    page_size = page_bytes;
    devices =
      Array.init ndev (fun _ ->
          Log_device.create ~page_write_time ~page_bytes ~faults ?breaker
            ~clock ());
    next_device = 0;
    page = fresh_page ();
    sink;
    compressed;
    faults;
    strict = strict_page_order;
    txn_durable = Hashtbl.create 256;
    buffered = [];
    last_at = 0.0;
    stable_last_commit = 0.0;
  }

let strategy t = t.strat

let records_bytes ~compressed records =
  List.fold_left
    (fun acc r -> acc + Log_record.size_bytes ~compressed r)
    0 records

let pick_device t =
  let d = t.devices.(t.next_device) in
  t.next_device <- (t.next_device + 1) mod Array.length t.devices;
  d

(* Flush the open buffer page to a device, honouring commit-group
   dependencies: the write is issued no earlier than the durability time
   of every group the page's transactions depend on. *)
let flush_page t ~at =
  if t.page.op_records = [] && t.page.op_tickets = [] then at
  else begin
    let dep_time =
      List.fold_left
        (fun acc (_, deps) ->
          List.fold_left
            (fun acc dep ->
              match Hashtbl.find_opt t.txn_durable dep with
              | Some c -> Float.max acc c
              | None -> acc (* same page: shares this completion *))
            acc deps)
        0.0 t.page.op_tickets
    in
    let issue = Float.max at (Float.max dep_time t.page.op_page_dep) in
    let dev = pick_device t in
    let completion =
      Log_device.write_page dev ~compressed:t.compressed ~at:issue
        (List.rev t.page.op_records)
        ~bytes:t.page.op_bytes
    in
    List.iter
      (fun (tkt, _) ->
        tkt.completion <- Some completion;
        Hashtbl.replace t.txn_durable tkt.tkt_txn completion)
      t.page.op_tickets;
    t.page <- fresh_page ();
    completion
  end

let append_record t ~at r =
  let sz = Log_record.size_bytes ~compressed:t.compressed r in
  if t.page.op_bytes + sz > t.page_size then begin
    (* Strict mode: does [r] continue a transaction whose earlier records
       sit in the page about to flush?  If so the new page must chain
       behind it — §5.2's topological ordering applied within a
       transaction.  Without the chain, a crash landing mid-write can
       preserve a straddler's commit record while the page holding its
       updates is still in flight on another (busier) device.  Legacy
       mode (the seed's timing model, where crashes only land at quiesce
       points) keeps straddling pages fully parallel. *)
    let straddles =
      t.strict
      &&
      match Log_record.txn r with
      | Some tx ->
        List.exists (fun r' -> Log_record.txn r' = Some tx) t.page.op_records
      | None -> false
    in
    let completion = flush_page t ~at in
    if straddles then t.page.op_page_dep <- completion
  end;
  t.page.op_records <- r :: t.page.op_records;
  t.page.op_bytes <- t.page.op_bytes + sz

(* Stable strategy: drain whole pages from stable memory to the devices
   until [need] bytes fit (or the backlog is empty).  Drains are issued at
   [at]; each device queues its own writes, so multiple devices drain in
   parallel.  Returns the completion time of the last drain issued. *)
let stable_drain t sm ~at ~need =
  (* Disk pages carry the compressed form (new values only, §5.4), so a
     page is packed until its *compressed* size is full — this is where
     compression buys throughput: more transactions per page write. *)
  let last = ref at in
  let continue = ref true in
  while !continue && Stable_memory.available sm < need do
    (* Pack one disk page. *)
    let page_records = ref [] in
    let page_fill = ref 0 in
    let packing = ref true in
    while !packing do
      match Stable_memory.peek_batch sm with
      | Some (records, _stable_bytes) ->
        let sz = records_bytes ~compressed:t.compressed records in
        if !page_fill + sz <= t.page_size || !page_fill = 0 then begin
          Stable_memory.drop_batch sm;
          page_records := List.rev_append records !page_records;
          page_fill := !page_fill + sz
        end
        else packing := false
      | None -> packing := false
    done;
    if !page_fill = 0 then continue := false
    else begin
      let dev = pick_device t in
      (* Drain writes are battery-backed: durable from issue (the
         stable-drain simplification in DESIGN.md), so a crash landing
         mid-drain cannot lose records already acknowledged committed. *)
      let completion =
        Log_device.write_page dev ~protected:true ~compressed:t.compressed
          ~at
          (List.rev !page_records)
          ~bytes:(min !page_fill t.page_size)
      in
      last := Float.max !last completion
    end
  done;
  !last

(* Append [records] to the log stream at [at].  The Stable strategy
   stores them in stable memory, draining first if they do not fit, and
   returns when they are in; the page strategies append them to the open
   page and return [at]. *)
let append t ~at records =
  if at < t.last_at -. 1e-12 then
    invalid_arg "Wal: submissions must be in time order";
  t.last_at <- Float.max t.last_at at;
  t.buffered <- List.rev_append records t.buffered;
  match t.sink with
  | In_stable sm ->
    (* Stable memory always stores the full (uncompressed) records. *)
    let bytes = records_bytes ~compressed:false records in
    let stored_at =
      if Stable_memory.available sm < bytes then stable_drain t sm ~at ~need:bytes
      else at
    in
    if not (Stable_memory.put_records sm records ~bytes) then
      invalid_arg "Wal: records larger than stable memory";
    stored_at
  | Pages ->
    List.iter (append_record t ~at) records;
    at

let commit_txn t ~at ~txn ~deps records =
  let stored_at = append t ~at records in
  let tkt = { tkt_txn = txn; completion = None } in
  (match t.sink with
  | In_stable _ ->
    (* Commit point: records are in stable memory.  If draining had to
       run to make room, the transaction waited for it to finish.  Commit
       stamps are monotone in submission order — a transaction entering
       stable memory behind a drain-delayed predecessor cannot claim an
       earlier commit point (its dependencies were submitted first). *)
    let committed_at = Float.max stored_at t.stable_last_commit in
    t.stable_last_commit <- committed_at;
    tkt.completion <- Some committed_at;
    Hashtbl.replace t.txn_durable txn committed_at
  | Pages ->
    t.page.op_tickets <- (tkt, deps) :: t.page.op_tickets;
    let force =
      match t.strat with
      | Conventional -> true
      | Group_commit | Partitioned _ | Stable _ -> false
    in
    if force || t.page.op_bytes >= t.page_size then ignore (flush_page t ~at));
  tkt

(* Non-transactional records (checkpoint brackets): appended to the log
   stream without a commit ticket.  They ride the open page (or stable
   memory) and become durable with the next flush or page fill. *)
let log_control t ~at records = ignore (append t ~at records)

let ticket_txn tkt = tkt.tkt_txn
let ticket_completion tkt = tkt.completion

let flush t ~at =
  match t.sink with
  | In_stable sm -> stable_drain t sm ~at ~need:(Stable_memory.capacity sm + 1)
  | Pages -> flush_page t ~at

let quiesce_time t =
  Array.fold_left (fun acc d -> Float.max acc (Log_device.busy_until d)) 0.0
    t.devices

let pages_written t =
  Array.fold_left (fun acc d -> acc + Log_device.pages_written d) 0 t.devices

let disk_bytes_written t =
  Array.fold_left (fun acc d -> acc + Log_device.bytes_written d) 0 t.devices

(* The disk log followed by the stable-memory tail.  Without stable
   memory there is no tail, and the disk log is returned as it is rather
   than copied. *)
let append_stable on_disk = function
  | [] -> on_disk
  | in_stable -> on_disk @ in_stable

let durable_records t ~at =
  (* Section 5.2's recovery-time merge of the per-device log fragments by
     page timestamp.  Stable-memory contents are the newest suffix (drains
     are FIFO), so they append after the merged disk log. *)
  let on_disk =
    Log_merge.merge
      (Array.to_list t.devices
      |> List.map (fun d -> Log_device.durable_pages d ~at))
  in
  match t.sink with
  | In_stable sm -> append_stable on_disk (Stable_memory.records sm)
  | Pages -> on_disk

let all_records t = List.rev t.buffered

let faults t = t.faults

let page_spans t =
  Array.to_list t.devices
  |> List.concat_map Log_device.page_spans
  |> List.sort compare

(* The devices crash first, then a battery droop loses the newest
   stable-memory batches (FAULT007). *)
let crash t ~at =
  let on_disk =
    Log_merge.merge
      (Array.to_list t.devices |> List.map (fun d -> Log_device.crash d ~at))
  in
  t.page <- fresh_page ();
  match t.sink with
  | Pages -> on_disk
  | In_stable sm ->
    (match Fault_plan.peek t.faults Fault.Stable_crash with
    | Some (Fault.Battery_droop { batches }) ->
      let held = List.length (Stable_memory.records sm) in
      Stable_memory.drop_newest sm ~batches;
      let lost = held - List.length (Stable_memory.records sm) in
      if lost > 0 then begin
        Fault_plan.note_injected t.faults ~code:"FAULT007" ~site:"stable.crash"
          (Printf.sprintf "battery droop: newest %d batch(es) lost" batches);
        Fault_plan.note_unrecoverable t.faults ~code:"FAULT007"
          ~site:"stable.crash"
          (Printf.sprintf "%d acknowledged record(s) lost" lost)
      end
    | Some
        ( Fault.Torn_write | Fault.Bit_flip_read | Fault.Bit_flip_rest
        | Fault.Io_transient _ )
    | None -> ());
    append_stable on_disk (Stable_memory.records sm)
