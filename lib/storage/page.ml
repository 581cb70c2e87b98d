let header_size = 2

let create page_size =
  if page_size <= header_size then invalid_arg "Page.create: page too small";
  Bytes.make page_size '\000'

let capacity ~page_size ~tuple_width =
  if tuple_width <= 0 then invalid_arg "Page.capacity: nonpositive width";
  let c = (page_size - header_size) / tuple_width in
  if c <= 0 then invalid_arg "Page.capacity: tuple wider than page";
  c

let count page = Char.code (Bytes.get page 0) lor (Char.code (Bytes.get page 1) lsl 8)

let set_count page n =
  if n < 0 || n > 0xFFFF then invalid_arg "Page.set_count: out of range";
  Bytes.set page 0 (Char.chr (n land 0xFF));
  Bytes.set page 1 (Char.chr ((n lsr 8) land 0xFF))

let slot_off ~tuple_width i = header_size + (i * tuple_width)

let get page ~tuple_width i =
  if i < 0 || i >= count page then invalid_arg "Page.get: slot out of bounds";
  Bytes.sub page (slot_off ~tuple_width i) tuple_width

let append page ~tuple_width tuple =
  if Bytes.length tuple <> tuple_width then
    invalid_arg "Page.append: tuple width mismatch";
  let n = count page in
  let cap = capacity ~page_size:(Bytes.length page) ~tuple_width in
  if n >= cap then false
  else begin
    Bytes.blit tuple 0 page (slot_off ~tuple_width n) tuple_width;
    set_count page (n + 1);
    true
  end

let iter page ~tuple_width f =
  let n = count page in
  for i = 0 to n - 1 do
    f i (Bytes.sub page (slot_off ~tuple_width i) tuple_width)
  done

let checksum page = Mmdb_util.Checksum.crc32_bytes page
