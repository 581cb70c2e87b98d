(** Interleaved-workload fuzzer for the transaction sanitizer: one
    shrinking property over drawn schedules.

    A driver over {!Mmdb_recovery.Txn}, the transaction kernel, with
    concurrent transfers over 16 accounts: staged lock acquisition (so
    transactions queue on each other), 15 percent voluntary aborts, up
    to 4 transactions in flight, deadlock victims, optional crashes
    mid-schedule.  The kernel's recorder witnesses every lock transition,
    read and write, and {!Schedule_check.audit} runs over the result.

    The property ({!violations}), checked on {!gen}'s cases with
    {!Audit.property}: every injected race is reported; the only
    error-severity findings are those on the injected controls plus,
    under [scramble], TXN006 (a deadlock the driver broke, a spike's
    lock-wait timeout broke, or a crash cut off); every deadlock the
    driver broke is reported as TXN006; the run raises nothing. *)

type inject = [ `Ww | `Rw | `Unguarded | `Release_no_acquire | `Snapshot ]
(** Positive controls, each one race by ghost transactions (ids from
    1,000,000) on private domains and a key above the account range:
    [`Ww] → RACE001, [`Rw] → RACE002, [`Unguarded] → RACE003 (lockset
    fallback only), [`Release_no_acquire] → RACE004, [`Snapshot] →
    RACE005.  The unversioned ones also surface as TXN002. *)

type case = {
  seed : int;  (** seeds the {!Mmdb_util.Xorshift} stream of every draw *)
  txns : int;  (** transfers of 2–4 accounts each *)
  domains : int;
      (** transaction [id] runs on simulated domain [id mod domains], so
          cross-domain ordering comes only from lock edges *)
  scramble : bool;
      (** shuffled acquisition order; sorted order cannot deadlock *)
  crash : bool;
      (** stop two-thirds through without flushing the log: a truncated
          trace the analyzers must accept *)
  spike : bool;
      (** a starved token bucket sheds arrivals (OVLD001) and waiters
          past a short lock-wait deadline abort (OVLD004) *)
  inject : inject list;  (** controls appended to the trace *)
}

type outcome = {
  events : Mmdb_recovery.Schedule.event list;  (** the recorded trace *)
  log : Mmdb_recovery.Log_record.t list;
      (** every record submitted to the WAL, in order *)
  diags : Mmdb_util.Diag.t list;  (** [Schedule_check.audit ~log events] *)
  injected : string list;  (** expected RACE codes, one per injection *)
  committed : int;  (** transactions that pre-committed *)
  aborted : int;  (** voluntary aborts plus deadlock victims *)
  waits : int;  (** lock requests that had to queue *)
  deadlocks : int;
      (** victims killed because every in-flight transaction was queued
          (may exceed distinct TXN006 cycles) *)
  crashed : bool;  (** the run stopped mid-schedule without a flush *)
  ovld_codes : (string * int) list;  (** OVLD histogram under [spike] *)
}

val run : case -> outcome
(** Execute one case; the same case always records the same schedule,
    log and diagnostics.
    @raise Invalid_argument if [txns] or [domains] is below 1. *)

val violations : case -> outcome -> string list
(** The property's broken clauses for a case and its run: [[]] when it
    holds. *)

val gen : case QCheck2.Gen.t
(** 1–120 transactions, 1–4 domains, and each of scramble, crash, spike
    and the five injections half the time; a failing case shrinks
    toward fewer transactions, one domain and none of the rest. *)

val pp_case : Format.formatter -> case -> unit
(** A case as an OCaml record literal, to replay with {!run}. *)
