(* Table-driven reflected CRC-32 (polynomial 0xEDB88320).  The table is
   built eagerly at module initialisation — a lazy here would race when
   first forced from two domains (Lazy is not domain-safe). *)

(* race_check: write-once CRC table filled before any domain can spawn,
   read-only afterwards *)
let table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        if !c land 1 = 1 then c := 0xEDB88320 lxor (!c lsr 1)
        else c := !c lsr 1
      done;
      !c)

let step crc byte = table.((crc lxor byte) land 0xFF) lxor (crc lsr 8)

let crc32 buf ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length buf then
    invalid_arg "Checksum.crc32: range out of bounds";
  let crc = ref 0xFFFFFFFF in
  for i = pos to pos + len - 1 do
    crc := step !crc (Char.code (Bytes.unsafe_get buf i))
  done;
  !crc lxor 0xFFFFFFFF

let crc32_bytes buf = crc32 buf ~pos:0 ~len:(Bytes.length buf)


let crc32_ints arr ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Array.length arr then
    invalid_arg "Checksum.crc32_ints: range out of bounds";
  let crc = ref 0xFFFFFFFF in
  for i = pos to pos + len - 1 do
    let v = arr.(i) in
    for b = 0 to 7 do
      crc := step !crc ((v asr (8 * b)) land 0xFF)
    done
  done;
  !crc lxor 0xFFFFFFFF
