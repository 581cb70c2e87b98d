(** In-memory hash table of tuples keyed by the key field.

    The build side of every hash join.  Tracks its size in "data pages" so
    callers can enforce the paper's constraint that a table over [X] pages
    of tuples needs [X·F] pages of memory.  Inserting charges one [move]
    (the tuple moves into the table); probing charges one [comp] per
    candidate examined — together these realise the paper's
    [||R||·move + ||S||·F·comp] terms. *)

type t

val create : env:Mmdb_storage.Env.t -> schema:Mmdb_storage.Schema.t ->
  tuples_per_page:int -> t

val insert : t -> bytes -> unit
(** Add a tuple (duplicates allowed — joins are bags). *)

val length : t -> int
(** Tuples stored. *)

val data_pages : t -> int
(** [⌈length / tuples_per_page⌉]: pages of raw tuple data held. *)

val memory_pages : t -> fudge:float -> int
(** [⌈data_pages · F⌉]: memory the table occupies under the paper's fudge
    factor. *)

val probe : t -> probe_schema:Mmdb_storage.Schema.t -> bytes ->
  (bytes -> unit) -> unit
(** [probe t ~probe_schema s_tuple f] calls [f r_tuple] for every stored
    tuple whose key equals [s_tuple]'s key (under [probe_schema]'s key
    field; widths must match).  Charges one [comp] per candidate in the
    bucket. *)

val clear : t -> unit
