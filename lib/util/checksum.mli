(** CRC-32 checksums (IEEE 802.3 polynomial, reflected).

    The fault-injection plane ({!Mmdb_fault}) relies on every persistent
    artifact — data pages, serialized log records, snapshot pages —
    carrying a checksum so that torn writes and media corruption are
    *detectable* rather than silent.  CRC-32 detects all single-bit
    errors and all burst errors up to 32 bits, which covers the injected
    fault classes exactly. *)

val crc32 : bytes -> pos:int -> len:int -> int
(** [crc32 buf ~pos ~len] is the CRC-32 of [len] bytes of [buf] starting
    at [pos], as a non-negative int in [\[0, 2^32)].
    @raise Invalid_argument if the range is out of bounds. *)

val crc32_bytes : bytes -> int
(** Checksum of a whole buffer. *)

val crc32_ints : int array -> pos:int -> len:int -> int
(** Checksum of a slice of an int array (each element contributes its
    low 8 bytes, little-endian) — used for the recovery store's
    page-structured snapshot, which lives as an [int array]. *)
