(** Typed fault model for the storage and recovery planes.

    A main-memory DBMS's durability story stands or falls on how the
    log, checkpoints, and stable memory behave at the instant of
    failure.  This module names the ugly cases — torn page writes,
    bit-flip media corruption, transient I/O errors, partial battery
    failure — as first-class values so they can be injected
    deterministically ({!Fault_plan}), detected by checksum, counted,
    and surfaced as typed diagnostics instead of [Invalid_argument].

    Every diagnostic carries a stable [FAULTnnn] code (catalogued in
    {!code_catalogue} and CODES.md) so tests and tooling can match on
    the fault class. *)

type site =
  | Disk_read  (** paged-disk sector read *)
  | Disk_write  (** paged-disk sector write *)
  | Pool_frame  (** buffer-pool frame at rest (memory rot) *)
  | Log_write  (** log-device page write *)
  | Log_read  (** log-device page read during recovery *)
  | Stable_crash  (** battery-backed stable memory at crash time *)
  | Snapshot  (** checkpoint snapshot page at rest *)

type kind =
  | Torn_write
      (** the page write in flight at the crash persists only a prefix;
          the tail keeps its previous contents *)
  | Bit_flip_read
      (** transient corruption on the read path: the first read returns
          a flipped bit, a retry returns clean data *)
  | Bit_flip_rest
      (** permanent media corruption: a bit flips in the stored copy *)
  | Io_transient of { failures : int }
      (** the next [failures] attempts fail outright, then succeed;
          callers retry with bounded backoff on the simulated clock *)
  | Battery_droop of { batches : int }
      (** stable memory loses its newest [batches] record batches at
          crash (partial battery failure) *)

(** Running counters for the fault plane: how many faults were
    injected, how many the checksum layer detected, how many I/O
    attempts were retried, how many faults were repaired (reread,
    rebuilt, or truncated away), and how many were unrecoverable. *)
type tally = {
  mutable injected : int;
  mutable detected : int;
  mutable retried : int;
  mutable repaired : int;
  mutable unrecoverable : int;
  mutable retry_backoff : float;
      (** simulated seconds spent waiting out transient-I/O retry
          backoff, accumulated alongside [retried] *)
}

val tally_create : unit -> tally
val tally_copy : tally -> tally
val tally_total : tally -> int
val pp_tally : Format.formatter -> tally -> unit

type error = {
  code : string;  (** stable FAULTnnn identifier *)
  site : string;  (** where: ["disk.read pid=3"], ["log.page 7"], ... *)
  detail : string;
}

exception Io_error of error
(** A retryable I/O failure surfaced after the bounded retry budget, or
    a media-level addressing failure (unknown sector, size mismatch,
    batch underflow).  Callers can distinguish this from programmer
    error ([Invalid_argument]) and from {!Unrecoverable}. *)

exception Unrecoverable of error
(** Corruption that was detected but cannot be repaired from any
    surviving redundancy (no checkpoint + log to rebuild from). *)

val io_error : code:string -> site:string -> string -> 'a
(** @raise Io_error always (this is the raising helper). *)

val unrecoverable : code:string -> site:string -> string -> 'a
(** @raise Unrecoverable always (this is the raising helper). *)

val code_catalogue : (string * string) list
(** Every stable FAULT code with a one-line description. *)
