type t = { page : int; slot : int }

let make ~page ~slot = { page; slot }

let compare a b =
  match Int.compare a.page b.page with
  | 0 -> Int.compare a.slot b.slot
  | c -> c

let equal a b = a.page = b.page && a.slot = b.slot

let encoded_width = 8

let put_u32 buf off v =
  if v < 0 || v > 0xFFFFFFFF then invalid_arg "Tid: field out of u32 range";
  Bytes.set buf off (Char.chr ((v lsr 24) land 0xFF));
  Bytes.set buf (off + 1) (Char.chr ((v lsr 16) land 0xFF));
  Bytes.set buf (off + 2) (Char.chr ((v lsr 8) land 0xFF));
  Bytes.set buf (off + 3) (Char.chr (v land 0xFF))

let get_u32 buf off =
  (Char.code (Bytes.get buf off) lsl 24)
  lor (Char.code (Bytes.get buf (off + 1)) lsl 16)
  lor (Char.code (Bytes.get buf (off + 2)) lsl 8)
  lor Char.code (Bytes.get buf (off + 3))

let encode_into t buf off =
  put_u32 buf off t.page;
  put_u32 buf (off + 4) t.slot

let decode_from buf off = { page = get_u32 buf off; slot = get_u32 buf (off + 4) }
