(** Small descriptive-statistics helpers used by the benchmark harness and
    the recovery simulator's latency reporting. *)

type summary = {
  n : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  p50 : float;
  p90 : float;
  p99 : float;
}
(** Descriptive summary of a sample. *)

val summarize : float array -> summary
(** [summarize xs] computes a summary.  @raise Invalid_argument on an empty
    array.  The input is not modified (a sorted copy is taken). *)

val mean : float array -> float
(** Arithmetic mean.  @raise Invalid_argument on an empty array. *)

val stddev : float array -> float
(** Sample standard deviation (n-1 denominator); 0 for singleton samples. *)

val percentile : float array -> float -> float
(** [percentile xs p] for [p] in [\[0, 1\]] using linear interpolation on a
    sorted copy.  @raise Invalid_argument on empty input or p outside
    [\[0,1\]]. *)
