type t =
  | Begin of { txn : int; lsn : int }
  | Update of {
      txn : int;
      lsn : int;
      slot : int;
      old_value : int;
      new_value : int;
    }
  | Command of { txn : int; lsn : int; ops : (int * int) list }
  | Commit of { txn : int; lsn : int }
  | Abort of { txn : int; lsn : int }
  | Ckpt_begin of { lsn : int }
  | Ckpt_end of { lsn : int }

let lsn = function
  | Begin { lsn; _ } | Update { lsn; _ } | Command { lsn; _ }
  | Commit { lsn; _ } | Abort { lsn; _ } | Ckpt_begin { lsn }
  | Ckpt_end { lsn } -> lsn

let txn = function
  | Begin { txn; _ } | Update { txn; _ } | Command { txn; _ }
  | Commit { txn; _ } | Abort { txn; _ } -> Some txn
  | Ckpt_begin _ | Ckpt_end _ -> None

let committed log =
  List.filter_map (function Commit { txn; _ } -> Some txn | _ -> None) log

(* Sizes chosen so the paper's "typical" banking transaction (begin + 6
   updates + commit) writes 40 + 360 = 400 bytes uncompressed: 20 + 20
   header bytes and 6 * 60 update bytes, of which half of each update is
   the old value ("approximately half of the size of the log stores the
   old values"), so a compressed update is 30 bytes and the compressed
   transaction 220 — matching Recovery_model. *)
let size_bytes ~compressed = function
  | Begin _ | Commit _ | Abort _ | Ckpt_begin _ | Ckpt_end _ -> 20
  | Update _ -> if compressed then 30 else 60
  | Command { ops; _ } -> 20 + (8 * List.length ops)

(* Wire encoding.  Each record occupies exactly [size_bytes] bytes — the
   model sizes double as the physical layout, so byte accounting and
   serialization can never disagree.  Fields are little-endian; the last
   four bytes hold a CRC-32 of the record with those bytes zeroed.  The
   tag distinguishes full (60-byte) from compressed (30-byte) updates,
   so decoding needs no out-of-band compression flag. *)

let tag_of ~compressed = function
  | Begin _ -> 1
  | Update _ -> if compressed then 7 else 2
  | Commit _ -> 3
  | Abort _ -> 4
  | Ckpt_begin _ -> 5
  | Ckpt_end _ -> 6
  | Command _ -> 8

(* Tag 8 (command records) is variable-size: the size needs the op-count
   byte at offset 9, so [decode] computes it from the header instead. *)
let size_of_tag = function
  | 1 | 3 | 4 | 5 | 6 -> Some 20
  | 2 -> Some 60
  | 7 -> Some 30
  | _ -> None

let max_command_ops = 255

let put32 b off v =
  for i = 0 to 3 do
    Bytes.set b (off + i) (Char.chr ((v asr (8 * i)) land 0xFF))
  done

let get32 b off =
  let v = ref 0 in
  for i = 3 downto 0 do
    v := (!v lsl 8) lor Char.code (Bytes.get b (off + i))
  done;
  (* sign-extend from 32 bits *)
  (!v lxor 0x80000000) - 0x80000000

let put64 b off v =
  for i = 0 to 7 do
    Bytes.set b (off + i) (Char.chr ((v asr (8 * i)) land 0xFF))
  done

let get64 b off =
  let v = ref 0 in
  for i = 7 downto 0 do
    v := (!v lsl 8) lor Char.code (Bytes.get b (off + i))
  done;
  !v

let encode_into ~compressed r buf ~pos =
  let size = size_bytes ~compressed r in
  if pos < 0 || pos + size > Bytes.length buf then
    invalid_arg "Log_record.encode_into: out of bounds";
  Bytes.fill buf pos size '\000';
  Bytes.set buf pos (Char.chr (tag_of ~compressed r));
  put32 buf (pos + 1) (lsn r);
  put32 buf (pos + 5) (match txn r with Some t -> t | None -> 0);
  (match r with
  | Update { slot; old_value; new_value; _ } ->
    put32 buf (pos + 9) slot;
    if compressed then put64 buf (pos + 13) new_value
    else begin
      put64 buf (pos + 13) old_value;
      put64 buf (pos + 21) new_value
    end
  | Command { ops; _ } ->
    let nops = List.length ops in
    if nops > max_command_ops then
      invalid_arg "Log_record.encode_into: too many command ops";
    Bytes.set buf (pos + 9) (Char.chr nops);
    List.iteri
      (fun i (slot, delta) ->
        put32 buf (pos + 10 + (8 * i)) slot;
        put32 buf (pos + 14 + (8 * i)) delta)
      ops
  | Begin _ | Commit _ | Abort _ | Ckpt_begin _ | Ckpt_end _ -> ());
  let crc = Mmdb_util.Checksum.crc32 buf ~pos ~len:(size - 4) in
  put32 buf (pos + size - 4) crc;
  size

let encode ~compressed r =
  let buf = Bytes.create (size_bytes ~compressed r) in
  ignore (encode_into ~compressed r buf ~pos:0);
  buf

let decode buf ~pos =
  let avail = Bytes.length buf - pos in
  if avail < 1 then Error "empty"
  else
    let tag = Char.code (Bytes.get buf pos) in
    let sized =
      match size_of_tag tag with
      | Some s -> Ok s
      | None ->
        if tag <> 8 then Error (Printf.sprintf "bad tag %d" tag)
        else if avail < 10 then
          (* Command header (through the op-count byte) torn off. *)
          Error (Printf.sprintf "truncated record: %d of %d bytes" avail 20)
        else Ok (20 + (8 * Char.code (Bytes.get buf (pos + 9))))
    in
    match sized with
    | Error e -> Error e
    | Ok size when avail < size ->
      Error (Printf.sprintf "truncated record: %d of %d bytes" avail size)
    | Ok size ->
      let crc = Mmdb_util.Checksum.crc32 buf ~pos ~len:(size - 4) in
      let stored = get32 buf (pos + size - 4) land 0xFFFFFFFF in
      if crc <> stored then Error "checksum mismatch"
      else begin
        let lsn = get32 buf (pos + 1) in
        let txn = get32 buf (pos + 5) in
        let r =
          match tag with
          | 1 -> Begin { txn; lsn }
          | 3 -> Commit { txn; lsn }
          | 4 -> Abort { txn; lsn }
          | 5 -> Ckpt_begin { lsn }
          | 6 -> Ckpt_end { lsn }
          | 2 ->
            Update
              {
                txn;
                lsn;
                slot = get32 buf (pos + 9);
                old_value = get64 buf (pos + 13);
                new_value = get64 buf (pos + 21);
              }
          | 7 ->
            (* Compressed: the old value was dropped (§5.4) — legal only
               for transactions known committed, which are never undone. *)
            Update
              {
                txn;
                lsn;
                slot = get32 buf (pos + 9);
                old_value = 0;
                new_value = get64 buf (pos + 13);
              }
          | 8 ->
            let nops = Char.code (Bytes.get buf (pos + 9)) in
            Command
              {
                txn;
                lsn;
                ops =
                  List.init nops (fun i ->
                      ( get32 buf (pos + 10 + (8 * i)),
                        get32 buf (pos + 14 + (8 * i)) ));
              }
          | _ -> assert false
        in
        Ok (r, size)
      end

let decode_run buf ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length buf then
    invalid_arg "Log_record.decode_run: out of bounds";
  let rec go off acc =
    if off >= pos + len then (List.rev acc, None)
    else
      match decode buf ~pos:off with
      | Ok (r, size) when off + size <= pos + len -> go (off + size) (r :: acc)
      | Ok _ ->
        (* The record straddles the window's end.  The bytes past it may
           well decode (a torn write cut at a record boundary leaves the
           page's stale tail intact), but they are not part of this run. *)
        (List.rev acc, Some "record truncated at end of window")
      | Error e -> (List.rev acc, Some e)
  in
  go pos []
