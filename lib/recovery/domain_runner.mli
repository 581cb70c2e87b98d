(** Real-parallelism shim for the replay engine.

    On OCaml 5 this wraps [Domain.spawn]/[Domain.join] and a
    [Mutex]/[Condition] rendezvous; on OCaml 4 it degrades to a
    sequential loop (the build selects the implementation — see the copy
    rules in this directory's [dune]).  {!Replay} uses it only for
    wall-clock runs, and only when {!available}; the deterministic
    simulated scheduler never spawns domains, so tests and torture
    sweeps behave identically on both compilers. *)

val available : bool
(** [true] iff [run] executes its workers in parallel domains. *)

type rendezvous
(** A numbered set of one-shot meeting points shared by the workers of
    one {!run}. *)

val rendezvous : int -> rendezvous
(** [rendezvous k] has meeting points [0 .. k-1], none yet reached. *)

val meet : rendezvous -> int -> parties:int -> (unit -> unit) -> unit
(** [meet r i ~parties f] is called once at point [i] by each of
    [parties] workers.  The last to arrive runs [f] under the
    rendezvous lock and then releases the others; the earlier arrivals
    block until then.  Every worker returns after [f] has run, and what
    [f] wrote is visible to each of them.  If [f] raises, the caller
    re-raises it and the waiters are released as for a failed worker
    (see {!run}).  Without {!available} workers cannot wait for one
    another, so a meeting of two or more parties raises
    [Invalid_argument]. *)

val run : rendezvous -> n:int -> (int -> unit) -> unit
(** [run r ~n f] executes [f 0 .. f (n-1)], in parallel domains when
    {!available} (worker 0 runs on the calling domain), sequentially in
    index order otherwise, and returns when every worker has finished.
    Workers synchronise only through [r]: between meetings they must
    touch disjoint mutable state.  If a worker raises, every worker
    blocked or later arriving at a meeting of [r] is released and
    unwinds, all are joined, and the first exception is re-raised with
    its backtrace.  (Run sequentially, the workers after a failing one
    never start.) *)
