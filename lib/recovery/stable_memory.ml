type batch = { records : Log_record.t list; bytes : int }

type t = {
  capacity_bytes : int;
  mutable used_bytes : int;
  batches : batch Queue.t;
  table : (int, int) Hashtbl.t;
}

let create ~capacity_bytes =
  if capacity_bytes <= 0 then
    invalid_arg "Stable_memory.create: capacity <= 0";
  {
    capacity_bytes;
    used_bytes = 0;
    batches = Queue.create ();
    table = Hashtbl.create 256;
  }

let capacity t = t.capacity_bytes
let available t = t.capacity_bytes - t.used_bytes

let put_records t records ~bytes =
  if bytes < 0 then invalid_arg "Stable_memory.put_records: negative bytes";
  if bytes > available t then false
  else begin
    Queue.push { records; bytes } t.batches;
    t.used_bytes <- t.used_bytes + bytes;
    true
  end

let peek_batch t =
  match Queue.peek_opt t.batches with
  | Some b -> Some (b.records, b.bytes)
  | None -> None

let drop_batch t =
  match Queue.pop t.batches with
  | b -> t.used_bytes <- t.used_bytes - b.bytes
  | exception Queue.Empty ->
    Mmdb_fault.Fault.io_error ~code:"FAULT010" ~site:"stable"
      "drop_batch on empty stable memory"

let records t =
  List.concat_map (fun b -> b.records)
    (List.of_seq (Queue.to_seq t.batches))

let drop_newest t ~batches =
  let keep = Queue.length t.batches - batches in
  let kept = Queue.create () in
  Queue.iter (fun b -> if Queue.length kept < keep then Queue.push b kept) t.batches;
  Queue.clear t.batches;
  Queue.transfer kept t.batches;
  t.used_bytes <- Queue.fold (fun acc b -> acc + b.bytes) 0 t.batches

let table_put t ~key ~value = Hashtbl.replace t.table key value
let table_get t ~key = Hashtbl.find_opt t.table key
let table_remove t ~key = Hashtbl.remove t.table key

let table_fold t ~init ~f =
  Hashtbl.fold (fun key value acc -> f acc ~key ~value) t.table init

let table_clear t = Hashtbl.reset t.table
