module JM = Join_model

type input = { tuples : int; pages : int; tuples_per_page : int }

let input ~tuples ~pages ~tuples_per_page = { tuples; pages; tuples_per_page }

let fi = float_of_int
let log2_pos x = if x <= 1.0 then 0.0 else Float.log2 x
let pages_of ~tuples ~tuples_per_page =
  if tuples = 0 then 0 else ((tuples + tuples_per_page - 1) / tuples_per_page)

(* Replacement selection produces runs averaging 2|M| pages. *)
let expected_runs ~mem_pages ~pages =
  if pages = 0 then 1
  else max 1 (int_of_float (Float.ceil (fi pages /. (2.0 *. fi mem_pages))))

let sort_ops ~mem_pages i =
  let n = fi i.tuples and p = fi i.pages in
  let capacity = Float.min n (fi (mem_pages * i.tuples_per_page)) in
  let nruns = expected_runs ~mem_pages ~pages:i.pages in
  (* Run formation: n·log2(heap) queue steps, plus one run-destination
     comparison per replaced tuple when the input exceeds the heap. *)
  let steps_run = n *. log2_pos capacity in
  let dest_comps = if n > capacity then n else 0.0 in
  (* Final merge: a selection tree over the runs. *)
  let steps_merge = if nruns > 1 then n *. log2_pos (fi nruns) else 0.0 in
  {
    JM.comps = steps_run +. steps_merge +. dest_comps;
    hashes = 0.0;
    moves = 0.0;
    swaps = steps_run +. steps_merge;
    (* Runs written (~p pages), read back sequentially when a single run
       remains, plus the sorted output written sequentially (~p pages). *)
    seq_ios = p +. (if nruns <= 1 then p else 0.0) +. p;
    rand_ios = (if nruns > 1 then p else 0.0);
  }

let aggregate_ops ~mem_pages ~fudge ~comp_specs ~est_groups ~groups ~out_tuples
    ~out_tuples_per_page i =
  let n = fi i.tuples and p = fi i.pages in
  (* B and q size the group table the estimate fills, not the input; a
     fraction 1 - q of the input (its hash range) spills. *)
  let b, q =
    JM.hybrid_split ~fudge ~m:mem_pages
      ~pages:(pages_of ~tuples:est_groups ~tuples_per_page:out_tuples_per_page)
  in
  let spill = if b = 0 then 0.0 else 1.0 -. q in
  let out_pages = fi (pages_of ~tuples:out_tuples ~tuples_per_page:out_tuples_per_page) in
  {
    (* One group-table lookup plus one comp per Min/Max spec per tuple. *)
    JM.comps = n *. (1.0 +. fi comp_specs);
    (* Every tuple is hashed once, by the split or into the group table;
       a spilled tuple once more when its partition is read back. *)
    hashes = n *. (1.0 +. spill);
    (* A move per fresh group, plus a move per spilled tuple. *)
    moves = fi groups +. (n *. spill);
    swaps = 0.0;
    seq_ios =
      (p *. spill) (* read partitions back *)
      +. (if b <= 1 then p *. spill else 0.0) (* partition writes *)
      +. out_pages (* result written *);
    rand_ios = (if b > 1 then p *. spill else 0.0);
  }
