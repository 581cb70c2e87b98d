(** Tuple encoding and comparison.

    Tuples are fixed-width byte strings laid out by a {!Schema}.  Integers
    use a big-endian sign-biased encoding so that unsigned byte comparison
    orders them numerically — comparisons in the engine are therefore plain
    [Bytes] comparisons on the key field, matching the paper's "compare
    keys" primitive. *)

type value = VInt of int | VStr of string

val encode : Schema.t -> value list -> bytes
(** [encode schema values] lays out one tuple.
    @raise Invalid_argument on arity or type mismatch, a string longer than
    its column, or an integer out of range for its column width. *)

val decode : Schema.t -> bytes -> value list
(** Inverse of {!encode} (strings come back NUL-stripped). *)

val decode_int_at : bytes -> int -> int -> int
val decode_str_at : bytes -> int -> int -> string
(** [decode_int_at tuple off width] and [decode_str_at tuple off width]
    decode the field of [width] bytes at [off] with no schema lookup. *)

val get_int : Schema.t -> bytes -> int -> int
(** [get_int schema tuple i] decodes integer column [i]. *)

val get_str : Schema.t -> bytes -> int -> string
(** [get_str schema tuple i] decodes string column [i], NUL-stripped. *)

val set_int : Schema.t -> bytes -> int -> int -> unit
(** In-place update of integer column [i]. *)

val key_bytes : Schema.t -> bytes -> bytes
(** Copy of the key field. *)

val compare_keys : Schema.t -> bytes -> bytes -> int
(** Byte-wise comparison of the key fields of two tuples of the same
    schema.  This is the comparison the cost model charges [comp] for. *)

val compare_key_to : Schema.t -> bytes -> bytes -> int
(** [compare_key_to schema tuple key] compares [tuple]'s key field against
    a standalone encoded key value. *)

val equal_range : bytes -> int -> bytes -> int -> int -> bool
(** [equal_range a aoff b boff len]: [a]'s [len] bytes at [aoff] equal
    [b]'s at [boff] (keys compared where they lie). *)

val hash_key : Schema.t -> bytes -> int
(** FNV-1a over the key field — the "hash a key" primitive. *)

val encode_int_key : Schema.t -> int -> bytes
(** [encode_int_key schema v] encodes [v] as a standalone key using the key
    column's width (for probes). *)

val encode_key : Schema.t -> value -> bytes
(** [encode_key schema v] is {!encode_int_key} for [VInt], and for [VStr]
    the string NUL-padded to the key width (for probes).
    @raise Invalid_argument when the value does not fit the key width. *)

val int_key_range : Schema.t -> int * int
(** [(min, max)] representable range of the key column when it is an
    integer column. *)
