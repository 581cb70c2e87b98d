module Fault = Mmdb_fault.Fault
module Fault_plan = Mmdb_fault.Fault_plan

type io_mode = Seq | Rand

type t = {
  env : Env.t;
  page_size : int;
  pages : (int, bytes) Hashtbl.t;
  sums : (int, int) Hashtbl.t;
      (* out-of-band per-sector CRC-32 of the *intended* page image, the
         analogue of a controller writing sector CRCs alongside data.  It
         is held only for a page a faulted write stored torn or rotted:
         every other page is its intended image, so the sum of what is
         stored is the sum that would have been recorded. *)
  mutable faults : Fault_plan.t;
  mutable next_id : int;
}

let create ~env ~page_size =
  if page_size <= Page.header_size then
    invalid_arg "Disk.create: page_size too small";
  {
    env;
    page_size;
    pages = Hashtbl.create 1024;
    sums = Hashtbl.create 1024;
    faults = Fault_plan.none ();
    next_id = 0;
  }

let env t = t.env
let page_size t = t.page_size
let page_count t = Hashtbl.length t.pages
let faults t = t.faults
let arm t plan = t.faults <- plan

let alloc t =
  let id = t.next_id in
  t.next_id <- id + 1;
  let page = Page.create t.page_size in
  Hashtbl.replace t.pages id page;
  id

let find t pid =
  match Hashtbl.find_opt t.pages pid with
  | Some p -> p
  | None ->
    Fault.io_error ~code:"FAULT005" ~site:"disk"
      (Printf.sprintf "unknown page %d" pid)

let check_size t ~site page =
  if Bytes.length page <> t.page_size then
    Fault.io_error ~code:"FAULT006" ~site
      (Printf.sprintf "page size %d, disk uses %d" (Bytes.length page)
         t.page_size)

let charge_read t mode =
  match mode with
  | Seq -> Env.charge_io_seq_read t.env
  | Rand -> Env.charge_io_rand_read t.env

let charge_write t mode =
  match mode with
  | Seq -> Env.charge_io_seq_write t.env
  | Rand -> Env.charge_io_rand_write t.env

let backoff t ~attempt =
  let wait = Fault_plan.retry_backoff ~attempt in
  Fault_plan.note_retried t.faults ~backoff:wait;
  Sim_clock.advance t.env.Env.clock wait

(* A transient fault fails [failures] consecutive attempts; each failed
   attempt still occupies the device (charged) and waits out a backoff
   on the simulated clock before the next try.  The loop itself lives in
   {!Fault_plan.ride_transient} (one policy, one per-transaction budget,
   shared with the log devices). *)
let ride_transient t ~site ~charge ~failures =
  Fault_plan.ride_transient t.faults ~site ~failures
    ~attempt:(fun ~attempt:_ ~backoff ->
      charge ();
      Sim_clock.advance t.env.Env.clock backoff)

let flip_bit data bit =
  let i = bit / 8 in
  Bytes.set data i (Char.chr (Char.code (Bytes.get data i) lxor (1 lsl (bit mod 8))))

let store t pid page =
  Hashtbl.replace t.pages pid (Bytes.copy page);
  Hashtbl.remove t.sums pid

let write t ~mode pid page =
  check_size t ~site:"disk.write" page;
  ignore (find t pid);
  match Fault_plan.draw t.faults Fault.Disk_write with
  | Some Fault.Torn_write ->
    charge_write t mode;
    let cut = 1 + Fault_plan.rand_int t.faults (t.page_size - 1) in
    let torn = Bytes.copy (find t pid) in
    Bytes.blit page 0 torn 0 cut;
    Hashtbl.replace t.pages pid torn;
    Hashtbl.replace t.sums pid (Page.checksum page);
    Fault_plan.note_injected t.faults ~code:"FAULT001" ~site:"disk.write"
      (Printf.sprintf "page %d torn after byte %d" pid cut)
  | Some Fault.Bit_flip_rest ->
    charge_write t mode;
    let rotten = Bytes.copy page in
    let bit = Fault_plan.rand_int t.faults (8 * t.page_size) in
    flip_bit rotten bit;
    Hashtbl.replace t.pages pid rotten;
    Hashtbl.replace t.sums pid (Page.checksum page);
    Fault_plan.note_injected t.faults ~code:"FAULT002" ~site:"disk.write"
      (Printf.sprintf "page %d bit %d flipped at rest" pid bit)
  | Some (Fault.Io_transient { failures }) ->
    ride_transient t ~site:"disk.write"
      ~charge:(fun () -> charge_write t mode)
      ~failures;
    charge_write t mode;
    store t pid page
  | Some (Fault.Bit_flip_read | Fault.Battery_droop _) | None ->
    charge_write t mode;
    store t pid page

(* Checked read: reread on checksum mismatch (transient flips clear; a
   page corrupted on the medium itself stays bad and, after the retry
   budget, surfaces as a typed unrecoverable fault).  The expected sum is
   taken once, after the first lookup, so an unknown page still charges
   one read before FAULT005. *)
let read_checked t ~charge pid =
  let rec go attempt expected =
    charge ();
    let stored = find t pid in
    let sum =
      match expected with
      | Some sum -> sum
      | None -> (
        match Hashtbl.find_opt t.sums pid with
        | Some sum -> sum
        | None -> Page.checksum stored)
    in
    let data = Bytes.copy stored in
    let data =
      if attempt > 1 then data
      else
        match Fault_plan.draw t.faults Fault.Disk_read with
        | Some Fault.Bit_flip_read ->
          let bit = Fault_plan.rand_int t.faults (8 * t.page_size) in
          flip_bit data bit;
          Fault_plan.note_injected t.faults ~code:"FAULT002" ~site:"disk.read"
            (Printf.sprintf "page %d bit %d flipped in flight" pid bit);
          data
        | Some (Fault.Io_transient { failures }) ->
          ride_transient t ~site:"disk.read" ~charge ~failures;
          data
        | Some (Fault.Torn_write | Fault.Bit_flip_rest | Fault.Battery_droop _)
        | None ->
          data
    in
    if Page.checksum data = sum then begin
      if attempt > 1 then
        Fault_plan.note_repaired t.faults ~code:"FAULT002" ~site:"disk.read"
          (Printf.sprintf "page %d clean on reread %d" pid (attempt - 1));
      data
    end
    else begin
      if attempt = 1 then
        Fault_plan.note_detected t.faults ~code:"FAULT002" ~site:"disk.read"
          (Printf.sprintf "page %d checksum mismatch" pid);
      if attempt > Fault_plan.max_io_retries then begin
        Fault_plan.note_unrecoverable t.faults ~code:"FAULT011"
          ~site:"disk.read"
          (Printf.sprintf "page %d" pid);
        Fault.unrecoverable ~code:"FAULT011" ~site:"disk.read"
          (Printf.sprintf "page %d still corrupt after %d rereads" pid
             (attempt - 1))
      end
      else begin
        backoff t ~attempt;
        go (attempt + 1) (Some sum)
      end
    end
  in
  go 1 None

let read t ~mode pid =
  if not (Fault_plan.is_active t.faults) then begin
    charge_read t mode;
    Bytes.copy (find t pid)
  end
  else read_checked t ~charge:(fun () -> charge_read t mode) pid

let free t pid =
  ignore (find t pid);
  Hashtbl.remove t.pages pid;
  Hashtbl.remove t.sums pid

let read_nocharge t pid = Bytes.copy (find t pid)

let write_nocharge t pid page =
  check_size t ~site:"disk.write" page;
  ignore (find t pid);
  store t pid page
