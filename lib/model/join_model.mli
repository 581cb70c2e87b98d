(** Analytic cost model for Section 3: the four join algorithms.

    Transcribes the paper's cost formulas for sort-merge, simple-hash,
    GRACE-hash and hybrid-hash joins.  Costs are simulated seconds under a
    {!Mmdb_storage.Cost} machine model (Table 2 by default).  As in the
    paper, the initial read of both relations and the write of the result
    are excluded (identical for every algorithm), and the two-pass
    assumption [√(|S|·F) <= |M|] is required. *)

type workload = {
  r_pages : int;  (** [|R|], pages (the smaller relation) *)
  s_pages : int;  (** [|S|], pages *)
  r_tuples_per_page : int;
  s_tuples_per_page : int;
  cost : Mmdb_storage.Cost.t;  (** machine constants incl. fudge factor F *)
}

type ops = {
  comps : float;  (** key comparisons *)
  hashes : float;  (** hash-function applications *)
  moves : float;  (** tuple moves into tables/buffers *)
  swaps : float;  (** priority-queue element exchanges *)
  seq_ios : float;  (** sequential page transfers *)
  rand_ios : float;  (** random page transfers *)
}
(** Per-term operation counts — the cost breakdown behind each formula.
    Every [*_ops] function below returns the symbolic count of abstract
    machine operations; {!seconds} prices them under a {!Mmdb_storage.Cost}
    vector.  [seconds w.cost (sort_merge_ops w ~m) = sort_merge w ~m]
    (up to float associativity), and likewise for the other three. *)

val zero_ops : ops
val add_ops : ops -> ops -> ops

val seconds : Mmdb_storage.Cost.t -> ops -> float
(** Price an operation vector in simulated seconds. *)

val pp_ops : Format.formatter -> ops -> unit

val table2_workload : workload
(** Figure 1's setting: [|R| = |S| = 10,000] pages, 40 tuples/page,
    Table 2 constants. *)

val r_tuples : workload -> int
(** [||R||]. *)

val s_tuples : workload -> int
(** [||S||]. *)

val min_memory : workload -> int
(** [⌈√(|S|·F)⌉] — smallest [|M|] for which the formulas are valid. *)

val validate : workload -> m:int -> unit
(** @raise Invalid_argument if [|R| > |S|] or [m < min_memory]. *)

val sort_merge : workload -> m:int -> float
(** Replacement-selection run formation, one n-way merge, merge-join.
    When [m >= |S|·F] the sort happens entirely in memory and all I/O
    terms vanish (the "improves to ~900 seconds" note under Figure 1). *)

val simple_hash : workload -> m:int -> float
(** Multipass simple hash; [A = ⌈|R|·F / m⌉] passes with passed-over
    tuples rewritten and rescanned each pass. *)

val simple_hash_passes : workload -> m:int -> int
(** [A]. *)

val grace_hash : workload -> m:int -> float
(** GRACE: always partitions both relations to disk (random writes — one
    output buffer per partition), then joins partition pairs by hashing. *)

val hybrid_hash : workload -> m:int -> float
(** Hybrid: [B] disk partitions plus an in-memory partition [R0] covering
    fraction [q] of R.  Writing uses [IOseq] when [B <= 1] and [IOrand]
    otherwise — the discontinuity at [|M| = |R|·F/2] discussed under
    Figure 1. *)

val hybrid_partitions : workload -> m:int -> int
(** [B = max(0, ⌈(|R|·F − |M|) / (|M| − 1)⌉)]. *)

val hybrid_q : workload -> m:int -> float
(** [q = |R0| / |R|]: fraction of R (and, by uniformity, of S) processed
    without touching disk. *)

val sort_merge_ops : workload -> m:int -> ops
val simple_hash_ops : workload -> m:int -> ops
val grace_hash_ops : workload -> m:int -> ops
val hybrid_hash_ops : workload -> m:int -> ops
(** Per-term breakdowns of the four formulas; the [float] variants above
    are [seconds cost (…_ops w ~m)]. *)

val ops_of_algorithm : string -> workload -> m:int -> ops
(** Dispatch by the {!all_four} name ("sort-merge" | "simple" | "grace" |
    "hybrid").  @raise Invalid_argument on any other name. *)

val all_four : workload -> m:int -> (string * float) list
(** [("sort-merge", t); ("simple", t); ("grace", t); ("hybrid", t)]. *)

val all_four_ops : workload -> m:int -> (string * ops) list
(** Same order as {!all_four}, with per-term breakdowns. *)
