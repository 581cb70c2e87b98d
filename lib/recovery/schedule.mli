(** Transaction-schedule recording (input to
    {!Mmdb_verify.Schedule_check}).

    The Section 5.2 locking protocol — two-phase locking with
    pre-committed transactions — is trusted blindly unless the system can
    show its work.  A {!recorder} captures every lock-manager and
    transaction event as it happens, stamped with the transaction id, the
    key where applicable, and the simulated time.  The resulting
    trace is an offline-checkable witness of the schedule the executable
    system actually produced: 2PL conformance, deadlock freedom,
    conflict-serializability, and the pre-commit dependency ordering can
    all be audited after the fact.

    Recording is a zero-cost-when-disabled hook: emitters carry a
    [recorder option] and [emit] on [None] does nothing. *)

type kind =
  | Acquire  (** a transaction requested a lock *)
  | Grant of { deps : int list }
      (** the request was granted immediately; [deps] are the
          pre-committed transactions the grantee now depends on *)
  | Wait of { holder : int }
      (** the request blocked behind the current [holder] *)
  | Wake of { deps : int list }
      (** a queued waiter was granted the lock after a release *)
  | Read  (** the transaction read the key's current value *)
  | Write  (** the transaction overwrote the key's value *)
  | Precommit
      (** locks released, log records submitted; the transaction can no
          longer abort *)
  | Commit_durable  (** the commit record reached stable storage *)
  | Abort  (** the transaction rolled back before pre-commit *)
  | Release  (** one lock released (at pre-commit or abort) *)

type event = {
  time : float;  (** simulated seconds *)
  txn : int;
  key : int option;  (** the locked / accessed key, where applicable *)
  domain : int;
      (** the (simulated or real) OCaml domain that executed the event;
          0 for the historical single-domain emitters.  Events of one
          domain are program-ordered by trace position; cross-domain
          ordering exists only through lock release/grant edges — the
          happens-before relation {!Mmdb_verify.Schedule_check}
          audits. *)
  ver : float option;
      (** version timestamp for multiversion (MVCC) accesses: a [Write]
          installed a version with this commit timestamp, a [Read] ran
          against a snapshot at this timestamp.  [None] for accesses to
          the single-version store. *)
  kind : kind;
}

type recorder

val recorder : now:(unit -> float) -> recorder
(** A fresh recorder; [now] supplies the simulated-time stamp for each
    event (typically [fun () -> Sim_clock.now clock]). *)

val emit :
  recorder option -> ?at:float -> ?key:int -> ?domain:int -> ?ver:float ->
  txn:int -> kind -> unit
(** Append one event.  [None] recorder: no-op.  [at] overrides the
    [now]-derived stamp — used for durability events whose true time (the
    log ticket's completion) differs from the clock at emission.
    [domain] (default 0) stamps the executing domain; [ver] marks a
    multiversion access with its version timestamp. *)

val events : recorder -> event list
(** Everything recorded so far, in emission order. *)

val domains : event list -> int list
(** The distinct domain stamps appearing in a trace, sorted. *)
