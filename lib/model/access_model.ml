type t = {
  r_tuples : int;
  key_width : int;
  tuple_width : int;
  page_size : int;
  pointer_width : int;
  z : float;
  y : float;
}

let default =
  {
    r_tuples = 1_000_000;
    key_width = 8;
    tuple_width = 40;
    page_size = 4096;
    pointer_width = 4;
    z = 20.0;
    y = 1.0;
  }

let ceil_div_f a b = Float.ceil (a /. b)

let avl_comparisons t = Float.log2 (float_of_int t.r_tuples) +. 0.25

let avl_pages t =
  let node = t.tuple_width + (2 * t.pointer_width) in
  int_of_float
    (ceil_div_f
       (float_of_int (t.r_tuples * node))
       (float_of_int t.page_size))

let btree_fanout t =
  0.69 *. float_of_int t.page_size
  /. float_of_int (t.key_width + t.pointer_width)

let btree_leaf_pages t =
  let tuples_per_leaf = 0.69 *. float_of_int t.page_size /. float_of_int t.tuple_width in
  int_of_float (ceil_div_f (float_of_int t.r_tuples) tuples_per_leaf)

let btree_height t =
  let d = float_of_int (btree_leaf_pages t) in
  let f = btree_fanout t in
  int_of_float (Float.ceil (Float.log d /. Float.log f))

let btree_pages t =
  let d = float_of_int (btree_leaf_pages t) in
  let f = btree_fanout t in
  int_of_float (Float.ceil (d *. f /. (f -. 1.0)))

let btree_comparisons t = Float.ceil (Float.log2 (float_of_int t.r_tuples))

let resident_fraction pages m =
  let h = float_of_int m /. float_of_int pages in
  Float.min 1.0 (Float.max 0.0 h)

(* Per-term breakdown of an access cost: expected page faults, and
   comparisons in B+-tree-comparison units.  Each [*_cost] function
   prices its [*_terms] counterpart as [Z·page_reads + comparisons]. *)
type terms = { page_reads : float; comparisons : float }

let cost_of_terms t terms = (t.z *. terms.page_reads) +. terms.comparisons

let avl_random_terms t ~m =
  let c = avl_comparisons t in
  let h = resident_fraction (avl_pages t) m in
  { page_reads = c *. (1.0 -. h); comparisons = t.y *. c }

let btree_random_terms t ~m =
  let h' = resident_fraction (btree_pages t) m in
  let height = float_of_int (btree_height t) in
  {
    page_reads = (height +. 1.0) *. (1.0 -. h');
    comparisons = btree_comparisons t;
  }

let avl_random_cost t ~m = cost_of_terms t (avl_random_terms t ~m)
let btree_random_cost t ~m = cost_of_terms t (btree_random_terms t ~m)

let avl_preferred t ~m = btree_random_cost t ~m -. avl_random_cost t ~m > 0.0

(* The cost difference is monotone in m (more memory always helps the AVL
   tree at least as much: its structure is larger so a given m covers less
   of it, but d(cost)/dH is -Z·C for AVL vs -Z·(height+1)·S/S' for B+,
   and C = log2||R|| >> height+1).  Bisection on H = m/S is safe. *)
let crossover_h t =
  let s = avl_pages t in
  let preferred_at h =
    let m = int_of_float (Float.ceil (h *. float_of_int s)) in
    avl_preferred t ~m
  in
  if preferred_at 0.0 then 0.0
  else if not (preferred_at 1.0) then 1.0
  else begin
    let lo = ref 0.0 and hi = ref 1.0 in
    for _ = 1 to 40 do
      let mid = 0.5 *. (!lo +. !hi) in
      if preferred_at mid then hi := mid else lo := mid
    done;
    !hi
  end

let avl_seq_terms t ~m ~n =
  let h = resident_fraction (avl_pages t) m in
  let nf = float_of_int n in
  { page_reads = nf *. (1.0 -. h); comparisons = t.y *. nf }

let btree_seq_terms t ~m ~n =
  let h' = resident_fraction (btree_pages t) m in
  let tuples_per_leaf =
    0.69 *. float_of_int t.page_size /. float_of_int t.tuple_width
  in
  let leaves = ceil_div_f (float_of_int n) tuples_per_leaf in
  { page_reads = leaves *. (1.0 -. h'); comparisons = float_of_int n }

let avl_seq_cost t ~m ~n = cost_of_terms t (avl_seq_terms t ~m ~n)
let btree_seq_cost t ~m ~n = cost_of_terms t (btree_seq_terms t ~m ~n)

let crossover_h_seq t ~n =
  let s = avl_pages t in
  let preferred_at h =
    let m = int_of_float (Float.ceil (h *. float_of_int s)) in
    btree_seq_cost t ~m ~n -. avl_seq_cost t ~m ~n > 0.0
  in
  if preferred_at 0.0 then 0.0
  else if not (preferred_at 1.0) then 1.0
  else begin
    let lo = ref 0.0 and hi = ref 1.0 in
    for _ = 1 to 40 do
      let mid = 0.5 *. (!lo +. !hi) in
      if preferred_at mid then hi := mid else lo := mid
    done;
    !hi
  end

let pp ppf t =
  Format.fprintf ppf
    "||R||=%d K=%d t=%d P=%d s=%d Z=%.1f Y=%.2f (S=%d S'=%d height=%d)"
    t.r_tuples t.key_width t.tuple_width t.page_size t.pointer_width t.z t.y
    (avl_pages t) (btree_pages t) (btree_height t)
