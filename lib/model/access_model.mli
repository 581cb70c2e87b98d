(** Analytic cost model for Section 2: AVL vs B+-tree access methods.

    Costs are in units of one B+-tree comparison, using the paper's
    function [cost = Z·|page reads| + |comparisons|] where [Z] (realistic
    range 10..30) prices a page read in comparisons and an AVL comparison
    costs [Y <= 1] B+-tree comparisons.

    Reproduces:
    - the AVL structure size [S = ⌈||R||·(t + 2s) / P⌉],
    - the B+-tree fanout [0.69·P/(K+s)], leaf count
      [D = ||R|| / (0.69·P/t)], height [⌈log_fanout D⌉],
    - random-access costs [Z·C·(1 − |M|/S) + Y·C] and
      [Z·(height+1)·(1 − |M|/S') + C'],
    - the Table 1 crossover: the smallest memory fraction [H = |M|/S] at
      which the AVL tree becomes the cheaper structure,
    - the sequential-access analogue (inequality (2); [H'] per the paper
      behaves like [H], which the bench verifies). *)

type t = {
  r_tuples : int;  (** [||R||] *)
  key_width : int;  (** [K] bytes *)
  tuple_width : int;  (** [t] bytes *)
  page_size : int;  (** [P] bytes *)
  pointer_width : int;  (** [s] bytes *)
  z : float;  (** page-read cost in comparisons, 10..30 *)
  y : float;  (** AVL comparison cost relative to B+-tree, <= 1 *)
}

val default : t
(** One million 40-byte tuples, 8-byte keys, 4 KiB pages, 4-byte pointers,
    Z = 20, Y = 1. *)

val avl_comparisons : t -> float
(** [C = log2 ||R|| + 0.25]. *)

val avl_pages : t -> int
(** [S]: pages occupied by the AVL structure (tuple + two pointers per
    node). *)

val btree_fanout : t -> float
(** Effective fanout [0.69·P/(K+s)] (69% occupancy per Yao). *)

val btree_leaf_pages : t -> int
(** [D]: leaf pages at 69% occupancy. *)

val btree_height : t -> int
(** Index height [⌈log_fanout D⌉]. *)

val btree_pages : t -> int
(** [S']: total pages (leaves plus the geometric index overhead
    [D·f/(f−1)]). *)

val btree_comparisons : t -> float
(** [C' = ⌈log2 ||R||⌉]. *)

val avl_random_cost : t -> m:int -> float
(** Cost of one random-key lookup with [m] pages of buffer:
    [Z·C·max(0, 1 − m/S) + Y·C]. *)

val btree_random_cost : t -> m:int -> float
(** [Z·(height+1)·max(0, 1 − m/S') + C']. *)

val avl_preferred : t -> m:int -> bool
(** [cost(B+) − cost(AVL) > 0] at [m] pages. *)

val crossover_h : t -> float
(** Smallest fraction [H = m/S] of the AVL structure that must be
    memory-resident for the AVL tree to win (1.0 if it never wins below
    full residency; 0.0 if it always wins).  Found by bisection;
    [m' = H·S] is also used for the B+-tree's [H' = m/S']. *)

val avl_seq_cost : t -> m:int -> n:int -> float
(** Sequential case: read [n] records from a located start.  The AVL
    successor walk touches ~[n] nodes, each on a distinct page with fault
    probability [1 − m/S]; comparisons [Y·n]. *)

val btree_seq_cost : t -> m:int -> n:int -> float
(** The B+-tree walk reads [n / (0.69·P/t)] chained leaves with fault
    probability [1 − m/S']; comparisons [n]. *)

val crossover_h_seq : t -> n:int -> float
(** Sequential-access analogue of {!crossover_h}. *)

val pp : Format.formatter -> t -> unit
