type value = VInt of int | VStr of string

(* Order-preserving integer encoding: big-endian two's complement with the
   sign bit flipped, truncated to the column width.  Unsigned byte-wise
   comparison of encodings then equals numeric comparison. *)

let int_range width =
  if width >= 8 then (min_int, max_int)
  else
    let half = 1 lsl ((8 * width) - 1) in
    (-half, half - 1)

let encode_int_at buf off width v =
  let lo, hi = int_range width in
  if v < lo || v > hi then
    invalid_arg
      (Printf.sprintf "Tuple: int %d out of range for width %d" v width);
  if width >= 8 then
    Bytes.set_int64_be buf off (Int64.logxor (Int64.of_int v) Int64.min_int)
  else
    let biased = v + (1 lsl ((8 * width) - 1)) in
    for i = 0 to width - 1 do
      Bytes.set buf (off + i)
        (Char.unsafe_chr ((biased lsr (8 * (width - 1 - i))) land 0xFF))
    done

let decode_int_at buf off width =
  if width >= 8 then
    Int64.to_int (Int64.logxor (Bytes.get_int64_be buf off) Int64.min_int)
  else
    let raw = ref 0 in
    for i = 0 to width - 1 do
      raw := (!raw lsl 8) lor Char.code (Bytes.get buf (off + i))
    done;
    !raw - (1 lsl ((8 * width) - 1))

let encode_str_at buf off width s =
  if String.length s > width then
    invalid_arg
      (Printf.sprintf "Tuple: string %S wider than column (%d)" s width);
  Bytes.blit_string s 0 buf off (String.length s);
  for i = String.length s to width - 1 do
    Bytes.set buf (off + i) '\000'
  done

let decode_str_at buf off width =
  let len = ref width in
  while !len > 0 && Bytes.get buf (off + !len - 1) = '\000' do
    decr len
  done;
  Bytes.sub_string buf off !len

let type_error expected (c : Schema.column) =
  invalid_arg
    (Printf.sprintf "Tuple.encode: expected %s for %s" expected c.Schema.name)

let encode schema values =
  let cols = Array.of_list (Schema.columns schema) in
  let vals = Array.of_list values in
  if Array.length cols <> Array.length vals then
    invalid_arg "Tuple.encode: arity mismatch";
  let buf = Bytes.make (Schema.tuple_width schema) '\000' in
  Array.iteri
    (fun i (c : Schema.column) ->
      let off = Schema.offset schema i in
      match (c.Schema.ty, vals.(i)) with
      | Schema.Int, VInt v -> encode_int_at buf off c.Schema.width v
      | Schema.Fixed_string, VStr s -> encode_str_at buf off c.Schema.width s
      | Schema.Int, VStr _ -> type_error "int" c
      | Schema.Fixed_string, VInt _ -> type_error "string" c)
    cols;
  buf

let decode schema tuple =
  List.mapi
    (fun i (c : Schema.column) ->
      let off = Schema.offset schema i in
      match c.Schema.ty with
      | Schema.Int -> VInt (decode_int_at tuple off c.Schema.width)
      | Schema.Fixed_string -> VStr (decode_str_at tuple off c.Schema.width))
    (Schema.columns schema)

let get_int schema tuple i =
  let c = Schema.column_at schema i in
  (match c.Schema.ty with
  | Schema.Int -> ()
  | Schema.Fixed_string -> invalid_arg "Tuple.get_int: not an int column");
  decode_int_at tuple (Schema.offset schema i) c.Schema.width

let get_str schema tuple i =
  let c = Schema.column_at schema i in
  (match c.Schema.ty with
  | Schema.Fixed_string -> ()
  | Schema.Int -> invalid_arg "Tuple.get_str: not a string column");
  decode_str_at tuple (Schema.offset schema i) c.Schema.width

let set_int schema tuple i v =
  let c = Schema.column_at schema i in
  (match c.Schema.ty with
  | Schema.Int -> ()
  | Schema.Fixed_string -> invalid_arg "Tuple.set_int: not an int column");
  encode_int_at tuple (Schema.offset schema i) c.Schema.width v

let key_bytes schema tuple =
  Bytes.sub tuple (Schema.key_offset schema) (Schema.key_width schema)

let compare_range a aoff b boff len =
  let rec go i =
    if i = len then 0
    else
      let ca = Bytes.get a (aoff + i) and cb = Bytes.get b (boff + i) in
      if ca = cb then go (i + 1) else Char.compare ca cb
  in
  go 0

let rec equal_range a aoff b boff len =
  len = 0
  || Bytes.get a aoff = Bytes.get b boff
     && equal_range a (aoff + 1) b (boff + 1) (len - 1)

let compare_keys schema t1 t2 =
  let off = Schema.key_offset schema and w = Schema.key_width schema in
  compare_range t1 off t2 off w

let compare_key_to schema tuple key =
  let off = Schema.key_offset schema and w = Schema.key_width schema in
  if Bytes.length key <> w then
    invalid_arg "Tuple.compare_key_to: key width mismatch";
  compare_range tuple off key 0 w

let hash_key schema tuple =
  let off = Schema.key_offset schema and w = Schema.key_width schema in
  (* FNV-1a, 64-bit, folded to a non-negative int. *)
  let h = ref 0xCBF29CE484222325L in
  for i = off to off + w - 1 do
    h := Int64.logxor !h (Int64.of_int (Char.code (Bytes.get tuple i)));
    h := Int64.mul !h 0x100000001B3L
  done;
  Int64.to_int (Int64.shift_right_logical !h 2)

let encode_int_key schema v =
  let w = Schema.key_width schema in
  let buf = Bytes.make w '\000' in
  encode_int_at buf 0 w v;
  buf

let encode_key schema = function
  | VInt v -> encode_int_key schema v
  | VStr s ->
    let w = Schema.key_width schema in
    let buf = Bytes.create w in
    encode_str_at buf 0 w s;
    buf

let int_key_range schema = int_range (Schema.key_width schema)
