(** Real-parallelism shim for the replay engine.

    On OCaml 5 this wraps [Domain.spawn]/[Domain.join]; on OCaml 4 it
    degrades to a sequential loop (the build selects the implementation
    — see the copy rules in this directory's [dune]).  {!Replay} uses
    it only for wall-clock runs, and only when {!available}; the
    deterministic simulated scheduler never spawns domains, so tests
    and torture sweeps behave identically on both compilers. *)

val available : bool
(** [true] iff [run] executes its workers in parallel domains. *)

val run : n:int -> (int -> unit) -> unit
(** [run ~n f] executes [f 0 .. f (n-1)], in parallel domains when
    {!available} (worker 0 runs on the calling domain), sequentially in
    index order otherwise, and returns when every worker has finished.
    Workers never wait for one another, so they must touch disjoint
    mutable state.  If a worker raises, the others still run to the
    end, all are joined, and the first exception is re-raised with its
    backtrace.  (Run sequentially, the workers after a failing one
    never start.)
    @raise Invalid_argument if [n < 0]. *)
