(** In-memory hash table of tuples keyed by the key field: the build side
    of every hash join and the group table of hash aggregation.  Tuples
    are copied into one growing [bytes] arena, chained by key hash through
    [int] arrays, and probed by comparing key bytes where they lie.  Its
    size in "data pages" lets callers enforce the paper's constraint that
    [X] pages of tuples need [X·F] pages of memory.  An insert charges one
    [move]; a probe one [comp] per stored tuple whose key equals the
    probe's (hash collisions are free), or one when none does — the
    paper's [||R||·move + ||S||·F·comp] terms. *)

type t

val create : env:Mmdb_storage.Env.t -> schema:Mmdb_storage.Schema.t ->
  tuples_per_page:int -> t

val insert : t -> bytes -> unit
(** Copy a tuple in (duplicates allowed — joins are bags). *)

val length : t -> int
(** Tuples stored. *)

val data_pages : t -> int
(** [⌈length / tuples_per_page⌉]: pages of raw tuple data held. *)

val memory_pages : t -> fudge:float -> int
(** [⌈data_pages · F⌉]: memory the table occupies under the paper's fudge
    factor. *)

val get : t -> int -> bytes
(** [get t i] copies the [i]th tuple inserted since the last {!clear}. *)

val probe : t -> probe_schema:Mmdb_storage.Schema.t -> bytes ->
  (bytes -> unit) -> unit
(** [probe t ~probe_schema s_tuple f] calls [f r_tuple] with a copy of
    every stored tuple whose key equals [s_tuple]'s key (under
    [probe_schema]'s key field; widths must match), oldest first. *)

val find : t -> probe_schema:Mmdb_storage.Schema.t -> bytes -> int
(** The index (for {!get}) of the oldest stored tuple whose key equals
    the given tuple's, or [-1]; charges nothing. *)

val clear : t -> unit
(** Empty the table, keeping its arena for the next build. *)
