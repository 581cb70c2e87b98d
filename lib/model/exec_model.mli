(** Per-term cost predictions for the executable operators that the four
    join formulas of {!Join_model} do not cover: external sort and hash
    grouping (aggregation, duplicate elimination and set operations).

    Each function extends the paper's Section 3 accounting conventions
    (comps/hashes/moves/swaps, sequential vs random page transfers;
    initial input scans are free) to one operator in [lib/exec], evaluated
    at a given input size.  Predictions are idealized the same way the
    paper's formulas are — e.g. a priority queue costs one comparison and
    one exchange per [n·log2 m] step — so an implementation conforms up to
    a small constant factor, which [Mmdb_verify.Model_check] declares
    per-operator as its tolerance band. *)

type input = {
  tuples : int;
  pages : int;
  tuples_per_page : int;
}

val input : tuples:int -> pages:int -> tuples_per_page:int -> input

val pages_of : tuples:int -> tuples_per_page:int -> int
(** [⌈tuples / tuples_per_page⌉]. *)

val sort_ops : mem_pages:int -> input -> Join_model.ops
(** External sort: run formation + n-way merge + run and output I/O. *)

val aggregate_ops :
  mem_pages:int ->
  fudge:float ->
  comp_specs:int ->
  est_groups:int ->
  groups:int ->
  out_tuples:int ->
  out_tuples_per_page:int ->
  input ->
  Join_model.ops
(** Hash grouping into [groups] groups of which [out_tuples] are
    emitted, sized as [Mmdb_exec.Aggregate] sizes it: one pass when the
    pages [est_groups] output rows fill (at [out_tuples_per_page]) fit in
    [mem_pages], else the hybrid split with B and q computed from those
    pages.  [comp_specs] is the number of Min/Max specs (each charges a
    comparison per tuple).  Aggregation and duplicate elimination emit
    every group; a set operation's [input] is both of its inputs, and
    it emits only the groups its side mask selects. *)
