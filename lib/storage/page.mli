(** Slotted fixed-width-tuple page layout.

    A page is a [Bytes.t] of the disk's page size.  The first two bytes hold
    the tuple count (little-endian u16); tuples are fixed-width slots packed
    after the header.  Matching the paper's model, a page of size [P]
    holding tuples of width [t] stores [(P - header) / t] tuples. *)

val header_size : int
(** Bytes reserved at the start of every page (2). *)

val create : int -> bytes
(** [create page_size] is a zeroed page (tuple count 0). *)

val capacity : page_size:int -> tuple_width:int -> int
(** Maximum number of tuples per page.
    @raise Invalid_argument if [tuple_width <= 0] or no tuple fits. *)

val count : bytes -> int
(** Number of tuples currently on the page. *)

val get : bytes -> tuple_width:int -> int -> bytes
(** [get page ~tuple_width i] is a copy of slot [i].
    @raise Invalid_argument if [i] is out of bounds. *)

val append : bytes -> tuple_width:int -> bytes -> bool
(** [append page ~tuple_width tuple] adds a tuple if space remains; returns
    [false] when the page is full.  @raise Invalid_argument on width
    mismatch. *)

val iter : bytes -> tuple_width:int -> (int -> bytes -> unit) -> unit
(** [iter page ~tuple_width f] applies [f slot tuple_copy] to each tuple. *)

val checksum : bytes -> int
(** CRC-32 of the whole page image.  Stored out of band (the disk keeps a
    per-sector side table, checkpoints keep per-page sums) rather than in
    the 2-byte header, so page capacity arithmetic is unchanged. *)
