(** Real-parallelism shim for the replay engine: [Domain.spawn] and
    [Domain.join] behind one call.  {!Replay} uses it only for
    wall-clock runs; the deterministic simulated scheduler never spawns
    domains.  The torture property draws both, so a case that replays on
    domains must recover the same state as the simulated one. *)

val available : bool
(** Always [true]: the build requires OCaml 5, so [run] executes its
    workers in parallel domains. *)

val run : n:int -> (int -> unit) -> unit
(** [run ~n f] executes [f 0 .. f (n-1)] in parallel domains (worker 0
    runs on the calling domain) and returns when every worker has
    finished.  Workers never wait for one another, so they must touch
    disjoint mutable state.  If a worker raises, the others still run
    to the end, all are joined, and the first exception is re-raised
    with its backtrace.
    @raise Invalid_argument if [n < 0]. *)
