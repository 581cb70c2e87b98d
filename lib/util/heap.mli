(** Binary min-heap with a caller-supplied ordering.

    Used by the replacement-selection run generator and the n-way merge of
    the external sort (Section 3.4 of the paper calls for "a selection tree
    or some other priority queue structure"). *)

type 'a t
(** A mutable heap of ['a]. *)

val create : ?on_swap:(unit -> unit) -> cmp:('a -> 'a -> int) -> unit -> 'a t
(** [create ~cmp] is an empty heap ordered by [cmp] (smallest first).
    [on_swap] is invoked once per element exchange during sifting — the
    hook that lets executors charge [swap]s for actual data movement while
    the comparator charges [comp]s, keeping the two counts distinct (the
    cost-model convention of {!Mmdb_model.Join_model.ops}). *)

val length : 'a t -> int
(** Number of elements currently in the heap. *)

val is_empty : 'a t -> bool

val push : 'a t -> 'a -> unit
(** [push h x] inserts [x].  O(log n). *)

val peek : 'a t -> 'a option
(** [peek h] is the minimum element without removing it. *)

val pop : 'a t -> 'a option
(** [pop h] removes and returns the minimum element.  O(log n). *)

val pop_exn : 'a t -> 'a
(** Like {!pop}.  @raise Invalid_argument if the heap is empty. *)

val of_array :
  ?on_swap:(unit -> unit) -> cmp:('a -> 'a -> int) -> 'a array -> 'a t
(** [of_array ~cmp a] heapifies a copy of [a] in O(n). *)

val check_invariant : 'a t -> bool
(** [check_invariant h] verifies the heap property (test helper). *)
