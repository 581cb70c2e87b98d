(** Measurement wrapper for operator executions.

    Captures the simulated-time and counter deltas of one operator run, so
    experiments can report "measured" numbers next to the analytic model's
    predictions. *)

type t = {
  output_tuples : int;
  seconds : float;  (** simulated seconds charged during the run *)
  counters : Mmdb_storage.Counters.t;  (** activity delta *)
}

val measure : Mmdb_storage.Env.t -> (unit -> int) -> t
(** [measure env f] runs [f] (returning its output-tuple count) and
    captures the clock/counter deltas it charged to [env]. *)
