(** Tuple identifiers: (page index within a relation, slot within page).

    Section 3.2 of the paper discusses hash/sort structures holding TIDs or
    TID-key pairs instead of whole tuples; indexes here resolve to TIDs and
    the experiments can then charge the random fetch the paper warns
    about. *)

type t = { page : int; slot : int }

val make : page:int -> slot:int -> t
val compare : t -> t -> int
val equal : t -> t -> bool

val encoded_width : int
(** Bytes needed by {!encode} (8). *)

val encode_into : t -> bytes -> int -> unit
(** [encode_into tid buf off] serialises as two big-endian u32s. *)

val decode_from : bytes -> int -> t
