module C = Mmdb_storage.Cost

type workload = {
  r_pages : int;
  s_pages : int;
  r_tuples_per_page : int;
  s_tuples_per_page : int;
  cost : C.t;
}

type ops = {
  comps : float;
  hashes : float;
  moves : float;
  swaps : float;
  seq_ios : float;
  rand_ios : float;
}

let zero_ops =
  {
    comps = 0.0;
    hashes = 0.0;
    moves = 0.0;
    swaps = 0.0;
    seq_ios = 0.0;
    rand_ios = 0.0;
  }

let add_ops a b =
  {
    comps = a.comps +. b.comps;
    hashes = a.hashes +. b.hashes;
    moves = a.moves +. b.moves;
    swaps = a.swaps +. b.swaps;
    seq_ios = a.seq_ios +. b.seq_ios;
    rand_ios = a.rand_ios +. b.rand_ios;
  }

let seconds (c : C.t) o =
  (o.comps *. c.C.comp) +. (o.hashes *. c.C.hash) +. (o.moves *. c.C.move)
  +. (o.swaps *. c.C.swap)
  +. (o.seq_ios *. c.C.io_seq)
  +. (o.rand_ios *. c.C.io_rand)

let pp_ops ppf o =
  Format.fprintf ppf
    "comps=%.0f hashes=%.0f moves=%.0f swaps=%.0f seq=%.0f rand=%.0f" o.comps
    o.hashes o.moves o.swaps o.seq_ios o.rand_ios

let table2_workload =
  {
    r_pages = 10_000;
    s_pages = 10_000;
    r_tuples_per_page = 40;
    s_tuples_per_page = 40;
    cost = C.table2;
  }

let r_tuples w = w.r_pages * w.r_tuples_per_page
let s_tuples w = w.s_pages * w.s_tuples_per_page

let min_memory w =
  int_of_float (Float.ceil (sqrt (float_of_int w.s_pages *. w.cost.C.fudge)))

let validate w ~m =
  if w.r_pages > w.s_pages then
    invalid_arg "Join_model: requires |R| <= |S|";
  if m < min_memory w then
    invalid_arg
      (Printf.sprintf "Join_model: |M| = %d below sqrt(|S|*F) = %d" m
         (min_memory w))

let fi = float_of_int

(* log2 clamped below at 0 (a priority queue of <= 1 element is free). *)
let log2_pos x = if x <= 1.0 then 0.0 else Float.log2 x

let sort_merge_ops w ~m =
  validate w ~m;
  let c = w.cost in
  let rr = fi (r_tuples w) and ss = fi (s_tuples w) in
  let mf = fi m in
  (* Tuples resident while forming runs with a priority queue (never more
     than the relation itself). *)
  let mr = Float.min (mf *. fi w.r_tuples_per_page) rr
  and ms = Float.min (mf *. fi w.s_tuples_per_page) ss in
  (* Each priority-queue step is one comparison plus one exchange. *)
  let queue_steps = (rr *. log2_pos mr) +. (ss *. log2_pos ms) in
  let join_comps = rr +. ss in
  if mf >= fi w.s_pages *. c.C.fudge then
    (* Everything sorts in memory: no run I/O, no merge queue. *)
    {
      zero_ops with
      comps = queue_steps +. join_comps;
      swaps = queue_steps;
    }
  else begin
    let pages = fi (w.r_pages + w.s_pages) in
    (* Runs average 2|M| pages; the final merge drives a selection tree
       over all runs of both relations. *)
    let nruns_r = fi w.r_pages *. c.C.fudge /. (2.0 *. mf) in
    let nruns_s = fi w.s_pages *. c.C.fudge /. (2.0 *. mf) in
    let merge_steps = (rr +. ss) *. log2_pos (nruns_r +. nruns_s) in
    {
      zero_ops with
      comps = queue_steps +. merge_steps +. join_comps;
      swaps = queue_steps +. merge_steps;
      seq_ios = pages;
      rand_ios = pages;
    }
  end

let sort_merge w ~m = seconds w.cost (sort_merge_ops w ~m)

let simple_hash_passes w ~m =
  let a = Float.ceil (fi w.r_pages *. w.cost.C.fudge /. fi m) in
  max 1 (int_of_float a)

let simple_hash_ops w ~m =
  validate w ~m;
  let c = w.cost in
  let rr = fi (r_tuples w) and ss = fi (s_tuples w) in
  let a = fi (simple_hash_passes w ~m) in
  let base =
    {
      zero_ops with
      hashes = rr +. ss;
      moves = rr;
      comps = ss *. c.C.fudge;
    }
  in
  if a <= 1.0 then base
  else begin
    (* Pages of R absorbed per pass: |M|/F. *)
    let absorbed = fi m /. c.C.fudge in
    let tri = a *. (a -. 1.0) /. 2.0 in
    let passed_r_pages =
      Float.max 0.0 (((a -. 1.0) *. fi w.r_pages) -. (tri *. absorbed))
    in
    let passed_s_pages =
      Float.max 0.0
        (((a -. 1.0) *. fi w.s_pages)
        -. (tri *. absorbed *. (fi w.s_pages /. fi w.r_pages)))
    in
    let passed_r_tuples = passed_r_pages *. fi w.r_tuples_per_page in
    let passed_s_tuples = passed_s_pages *. fi w.s_tuples_per_page in
    add_ops base
      {
        zero_ops with
        hashes = passed_r_tuples +. passed_s_tuples;
        moves = passed_r_tuples +. passed_s_tuples;
        seq_ios = (passed_r_pages +. passed_s_pages) *. 2.0;
      }
  end

let simple_hash w ~m = seconds w.cost (simple_hash_ops w ~m)

(* Shared second-phase + partition-phase structure of GRACE and hybrid;
   [q] is the fraction of R (and S) joined without touching disk and
   [write_seq] selects IOseq for the partition-write when there is at most
   one output buffer. *)
let partitioned_hash_ops w ~q ~write_seq =
  let c = w.cost in
  let rr = fi (r_tuples w) and ss = fi (s_tuples w) in
  let pages = fi (w.r_pages + w.s_pages) in
  let spill = 1.0 -. q in
  let write_pages = pages *. spill in
  {
    comps = ss *. c.C.fudge; (* probe for each S tuple *)
    hashes =
      (rr +. ss) (* partition both relations *)
      +. ((rr +. ss) *. spill); (* phase-2 build/probe hash *)
    moves =
      ((rr +. ss) *. spill) (* to output buffers *)
      +. rr; (* move R tuples into hash tables *)
    swaps = 0.0;
    seq_ios =
      (if write_seq then write_pages else 0.0)
      +. write_pages; (* read partitions back *)
    rand_ios = (if write_seq then 0.0 else write_pages);
  }

let grace_hash_ops w ~m =
  validate w ~m;
  (* GRACE partitions everything regardless of memory size, with |M|
     output buffers -> random writes. *)
  partitioned_hash_ops w ~q:0.0 ~write_seq:false

let grace_hash w ~m = seconds w.cost (grace_hash_ops w ~m)

let hybrid_partitions w ~m =
  let rf = fi w.r_pages *. w.cost.C.fudge in
  if rf <= fi m then 0
  else max 1 (int_of_float (Float.ceil ((rf -. fi m) /. (fi m -. 1.0))))

let hybrid_q w ~m =
  let b = hybrid_partitions w ~m in
  if b = 0 then 1.0
  else begin
    let r0_pages = fi (m - b) /. w.cost.C.fudge in
    Float.min 1.0 (Float.max 0.0 (r0_pages /. fi w.r_pages))
  end

let hybrid_hash_ops w ~m =
  validate w ~m;
  let b = hybrid_partitions w ~m in
  let q = hybrid_q w ~m in
  partitioned_hash_ops w ~q ~write_seq:(b <= 1)

let hybrid_hash w ~m = seconds w.cost (hybrid_hash_ops w ~m)

let ops_of_algorithm name w ~m =
  match name with
  | "sort-merge" -> sort_merge_ops w ~m
  | "simple" -> simple_hash_ops w ~m
  | "grace" -> grace_hash_ops w ~m
  | "hybrid" -> hybrid_hash_ops w ~m
  | other -> invalid_arg ("Join_model.ops_of_algorithm: " ^ other)

let all_four w ~m =
  [
    ("sort-merge", sort_merge w ~m);
    ("simple", simple_hash w ~m);
    ("grace", grace_hash w ~m);
    ("hybrid", hybrid_hash w ~m);
  ]

let all_four_ops w ~m =
  [
    ("sort-merge", sort_merge_ops w ~m);
    ("simple", simple_hash_ops w ~m);
    ("grace", grace_hash_ops w ~m);
    ("hybrid", hybrid_hash_ops w ~m);
  ]
