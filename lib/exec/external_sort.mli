(** Run merging and full external sort (Section 3.4, step 2).

    Merging allocates one buffer page per run (so the number of runs must
    not exceed [mem_pages]); run pages are read with random I/O (runs
    interleave on disk) and every selection-tree step charges
    [comp + swap]. *)

type cursor
(** A pull-based stream of tuples in ascending key order. *)

val cursor_of_runs : schema:Mmdb_storage.Schema.t ->
  Mmdb_storage.Relation.t list -> cursor
(** [cursor_of_runs ~schema runs] merges sorted runs into one ascending
    stream.  Page reads are charged as random I/O when there is more than
    one run (interleaved access), sequential otherwise. *)

val peek : cursor -> bytes option
(** Next tuple without consuming it. *)

val next : cursor -> bytes option
(** Consume and return the next tuple. *)

val reduce_runs : mem_pages:int -> limit:int ->
  Mmdb_storage.Relation.t list -> Mmdb_storage.Relation.t list
(** [reduce_runs ~mem_pages ~limit runs] merges groups of up to
    [mem_pages] runs into longer runs (charged intermediate I/O) until at
    most [limit] remain.  Identity when already within [limit].  This is
    the ">2 passes" case the paper's [√(|S|·F) <= |M|] assumption rules
    out; the library still handles it. *)

val sort : mem_pages:int -> Mmdb_storage.Relation.t ->
  Mmdb_storage.Relation.t
(** [sort ~mem_pages rel] materialises a sorted copy of [rel]
    (runs + merge passes + charged sequential writes of the result).  Run
    pages are freed before returning. *)
