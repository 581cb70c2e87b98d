module S = Mmdb_storage
module U = Mmdb_util

(* Heap elements are (run_id, tuple): ordering by run first makes tuples
   destined for the next run sink below all current-run tuples. *)
let runs ~mem_pages rel =
  if mem_pages <= 0 then invalid_arg "Run_gen.runs: mem_pages <= 0";
  let env = S.Relation.env rel in
  let schema = S.Relation.schema rel in
  let disk = S.Relation.disk rel in
  let capacity = mem_pages * S.Relation.tuples_per_page rel in
  let cmp (run_a, ta) (run_b, tb) =
    match Int.compare run_a run_b with
    | 0 ->
      S.Env.charge_comp env;
      S.Tuple.compare_keys schema ta tb
    | c -> c
  in
  (* Comparisons and exchanges are charged separately: the comparator
     pays a comp per key comparison, the heap pays a swap only when an
     element actually moves — matching the model's comp/swap split
     instead of bundling a swap with every comparison. *)
  let heap = U.Heap.create ~on_swap:(fun () -> S.Env.charge_swap env) ~cmp () in
  let out = ref [] in
  let run_id = ref 0 in
  let current_run = ref None in
  let fresh_run () =
    let name = Printf.sprintf "%s.run%d" (S.Relation.name rel) !run_id in
    let r = S.Relation.create ~disk ~name ~schema in
    current_run := Some r;
    r
  in
  let emit run_of_tuple tuple =
    let run =
      match !current_run with
      | Some r when run_of_tuple = !run_id -> r
      | Some r ->
        S.Relation.seal r;
        out := r :: !out;
        incr run_id;
        fresh_run ()
      | None -> fresh_run ()
    in
    S.Relation.append run tuple
  in
  S.Relation.iter_tuples_nocharge rel (fun tuple ->
      if U.Heap.length heap < capacity then U.Heap.push heap (!run_id, tuple)
      else begin
        let out_run, out_tuple = U.Heap.pop_exn heap in
        (* The incoming tuple joins the popped tuple's run if it can still
           be emitted after it (keys nondecreasing), else the next run. *)
        S.Env.charge_comp env;
        let dest =
          if S.Tuple.compare_keys schema tuple out_tuple >= 0 then out_run
          else out_run + 1
        in
        emit out_run out_tuple;
        U.Heap.push heap (dest, tuple)
      end);
  (* Drain the heap. *)
  let rec drain () =
    match U.Heap.pop heap with
    | None -> ()
    | Some (r, tuple) ->
      emit r tuple;
      drain ()
  in
  drain ();
  (match !current_run with
  | Some r ->
    S.Relation.seal r;
    if S.Relation.ntuples r > 0 then out := r :: !out
    else S.Relation.free_pages r
  | None -> ());
  List.rev !out
