module Fault = Mmdb_fault.Fault
module Fault_plan = Mmdb_fault.Fault_plan
module Overload = Mmdb_overload.Overload

(* When a page survives a crash.  The ordinary case is an immediate, so
   an unprotected page carries no extra word. *)
type durability =
  | On_completion
  | Durable_from of float
      (* a battery-backed page: from the instant the drain queued it and
         dropped its records from stable memory, before a busy device
         starts it; a torn page's valid prefix: from the crash *)
  | Lost (* not durable at a crash: it never completes *)

type page = {
  start : float; (* when the device began writing this page *)
  completion : float;
  durability : durability;
  records : Log_record.t list;
  image : bytes option; (* physical encoding; built when faults armed *)
}

type t = {
  page_write_time : float;
  page_size : int;
  clock : Mmdb_storage.Sim_clock.t;
  faults : Fault_plan.t;
  breaker : Overload.Breaker.t option;
  mutable busy : float;
  mutable pages : page list; (* reversed *)
  mutable npages : int;
  mutable nbytes : int;
}

let create ?(page_write_time = 10e-3) ?(page_bytes = 4096) ?faults ?breaker
    ~clock () =
  if page_write_time <= 0.0 then invalid_arg "Log_device: write time <= 0";
  if page_bytes <= 0 then invalid_arg "Log_device: page_bytes <= 0";
  {
    page_write_time;
    page_size = page_bytes;
    clock;
    faults = (match faults with Some f -> f | None -> Fault_plan.none ());
    breaker;
    busy = 0.0;
    pages = [];
    npages = 0;
    nbytes = 0;
  }

(* Device-health reporting for an attached circuit breaker: an injected
   transient counts as a device error, a clean faulted-path write as a
   success.  The breaker never blocks the device — WAL ordering must
   hold regardless — it only informs service-layer shedding. *)
let breaker_note t ~at ~ok =
  match t.breaker with
  | None -> ()
  | Some b ->
    if ok then Overload.Breaker.record_success b ~now:at
    else Overload.Breaker.record_failure b ~now:at

let encode_records ~compressed records =
  let total =
    List.fold_left
      (fun acc r -> acc + Log_record.size_bytes ~compressed r)
      0 records
  in
  let buf = Bytes.create total in
  let off = ref 0 in
  List.iter
    (fun r -> off := !off + Log_record.encode_into ~compressed r buf ~pos:!off)
    records;
  buf

let flip_bit data bit =
  let i = bit / 8 in
  Bytes.set data i
    (Char.chr (Char.code (Bytes.get data i) lxor (1 lsl (bit mod 8))))

let write_page t ?(protected = false) ?(compressed = false) ~at records ~bytes
    =
  if bytes > t.page_size then
    invalid_arg
      (Printf.sprintf "Log_device.write_page: %d bytes exceed page size %d"
         bytes t.page_size);
  let armed = Fault_plan.is_active t.faults in
  (* Transient device errors delay the write: each failed attempt waits
     out a backoff before the controller retries.  The riding loop lives
     in {!Fault_plan.ride_transient} (one policy, one per-transaction
     budget, shared with the simulated disk). *)
  let delay =
    if not armed then 0.0
    else
      match Fault_plan.draw t.faults Fault.Log_write with
      | Some (Fault.Io_transient { failures }) ->
        breaker_note t ~at ~ok:false;
        let d = ref 0.0 in
        Fault_plan.ride_transient t.faults ~site:"log.write" ~failures
          ~attempt:(fun ~attempt:_ ~backoff -> d := !d +. backoff);
        !d
      | Some Fault.Bit_flip_rest -> -1.0 (* sentinel: damage image below *)
      | Some
          (Fault.Torn_write | Fault.Bit_flip_read | Fault.Battery_droop _)
      | None ->
        breaker_note t ~at ~ok:true;
        0.0
  in
  let rot_at_rest = delay < 0.0 in
  let delay = Float.max delay 0.0 in
  let image =
    if not armed then None
    else begin
      let img = encode_records ~compressed records in
      if rot_at_rest && Bytes.length img > 0 then begin
        let bit = Fault_plan.rand_int t.faults (8 * Bytes.length img) in
        flip_bit img bit;
        Fault_plan.note_injected t.faults ~code:"FAULT002" ~site:"log.write"
          (Printf.sprintf "log page %d bit %d flipped at rest" t.npages bit)
      end;
      Some img
    end
  in
  let start = Float.max (at +. delay) t.busy in
  let completion = start +. t.page_write_time in
  t.busy <- completion;
  let durability = if protected then Durable_from at else On_completion in
  t.pages <- { start; completion; durability; records; image } :: t.pages;
  t.npages <- t.npages + 1;
  t.nbytes <- t.nbytes + bytes;
  (* Keep the shared clock monotone with device activity. *)
  Mmdb_storage.Sim_clock.advance_to t.clock at;
  completion

let busy_until t = t.busy
let pages_written t = t.npages
let bytes_written t = t.nbytes

let page_durable p ~at =
  match p.durability with
  | On_completion -> p.completion <= at
  | Durable_from since -> since <= at
  | Lost -> false

let durable_pages t ~at =
  List.filter_map
    (fun p ->
      if page_durable p ~at then Some (p.completion, p.records) else None)
    (List.rev t.pages)

let page_spans t =
  List.rev_map (fun p -> (p.start, p.completion)) t.pages

(* Decode a (possibly damaged) page image, riding out transient read
   faults: a checksum failure triggers a reread; if the fresh copy decodes
   cleanly the flip was in flight (repaired), otherwise the damage is on
   the medium and the checksum-valid prefix is all that survives. *)
let decode_image t ~idx img =
  let read_once ~inject =
    let copy = Bytes.copy img in
    (if inject && Bytes.length copy > 0 then
       match Fault_plan.draw t.faults Fault.Log_read with
       | Some Fault.Bit_flip_read ->
         let bit = Fault_plan.rand_int t.faults (8 * Bytes.length copy) in
         flip_bit copy bit;
         Fault_plan.note_injected t.faults ~code:"FAULT002" ~site:"log.read"
           (Printf.sprintf "log page %d bit %d flipped in flight" idx bit)
       | Some
           ( Fault.Torn_write | Fault.Bit_flip_rest | Fault.Io_transient _
           | Fault.Battery_droop _ )
       | None -> ());
    Log_record.decode_run copy ~pos:0 ~len:(Bytes.length copy)
  in
  match read_once ~inject:true with
  | records, None -> records
  | first_records, Some err -> (
    Fault_plan.note_detected t.faults ~code:"FAULT002" ~site:"log.read"
      (Printf.sprintf "log page %d: %s" idx err);
    match read_once ~inject:false with
    | records, None ->
      Fault_plan.note_repaired t.faults ~code:"FAULT002" ~site:"log.read"
        (Printf.sprintf "log page %d clean on reread" idx);
      records
    | records, Some err2 ->
      (* Same damage twice: it is on the medium.  Keep the valid prefix. *)
      Fault_plan.note_unrecoverable t.faults ~code:"FAULT011" ~site:"log.read"
        (Printf.sprintf "log page %d corrupt at rest: %s" idx err2);
      ignore first_records;
      records)

(* What of the [idx]th page written survives a crash at [at]. *)
let survive t ~at idx p =
  let armed = Fault_plan.is_active t.faults in
  if page_durable p ~at then
    match p.image with
    | Some img when armed -> Some (decode_image t ~idx img)
    | Some _ | None -> Some p.records
  else if armed && p.start <= at && at < p.completion
          && match p.durability with Lost -> false | On_completion | Durable_from _ -> true
  then
    (* The page in flight at the crash: with a torn-write rule armed, a
       checksum-valid prefix of it persists. *)
    match (Fault_plan.peek t.faults Fault.Log_write, p.image) with
    | Some Fault.Torn_write, Some img when Bytes.length img > 0 ->
      let cut = Fault_plan.rand_int t.faults (Bytes.length img) in
      Fault_plan.note_injected t.faults ~code:"FAULT001" ~site:"log.write"
        (Printf.sprintf "log page %d torn after byte %d" idx cut);
      let prefix = Bytes.sub img 0 cut in
      let records, err = Log_record.decode_run prefix ~pos:0 ~len:cut in
      (match err with
      | Some e ->
        Fault_plan.note_detected t.faults ~code:"FAULT008" ~site:"log.read"
          (Printf.sprintf "log page %d tail truncated at last valid record (%s)"
             idx e)
      | None -> ());
      Some records
    | _ -> None
  else None

(* The device stops; a page that did not survive never completes, and a
   torn page keeps only the prefix that survived. *)
let crash t ~at =
  let kept = List.mapi (fun idx p -> (p, survive t ~at idx p)) (List.rev t.pages) in
  t.busy <-
    List.fold_left
      (fun acc (p, _) -> if page_durable p ~at then Float.max acc p.completion else acc)
      0.0 kept;
  t.pages <-
    List.rev_map
      (fun (p, survived) ->
        match survived with
        | None -> { p with durability = Lost }
        | Some records when not (page_durable p ~at) ->
          { p with records; image = None; durability = Durable_from at }
        | Some _ -> p)
      kept;
  List.filter_map
    (fun (p, r) -> Option.map (fun records -> (p.completion, records)) r)
    kept
