(** Cost constants of the paper's machine model (Table 2).

    Every primitive the 1984 analysis charges for — key comparison, key
    hash, tuple move, tuple swap, sequential I/O, random I/O — has a time
    constant here, in seconds.  The executable operators charge these
    against a {!Sim_clock} through {!Env}; the analytic models in
    [Mmdb_model] consume the same record, so "measured" (simulated) and
    "predicted" numbers share one source of truth. *)

type t = {
  comp : float;  (** time to compare keys (s) *)
  hash : float;  (** time to hash a key (s) *)
  move : float;  (** time to move a tuple (s) *)
  swap : float;  (** time to swap two tuples (s) *)
  io_seq : float;  (** sequential I/O operation time (s) *)
  io_rand : float;  (** random I/O operation time (s) *)
  fudge : float;  (** universal "fudge" factor F of Section 3.2 *)
}

val table2 : t
(** The exact settings of the paper's Table 2: comp 3 µs, hash 9 µs, move
    20 µs, swap 60 µs, IOseq 10 ms, IOrand 25 ms, F 1.2. *)

val pp : Format.formatter -> t -> unit
