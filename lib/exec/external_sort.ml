module S = Mmdb_storage
module U = Mmdb_util

(* A reader holds one buffer page of its run, refilled on demand. *)
type reader = {
  rel : S.Relation.t;
  ids : int array;
  tuple_width : int;
  mutable page_index : int;
  mutable page : bytes option;
  mutable slot : int;
  io_mode : S.Disk.io_mode;
}

type cursor = {
  heap : (bytes * reader) U.Heap.t;
  mutable lookahead : bytes option;
}

let reader_refill r =
  if r.page_index >= Array.length r.ids then r.page <- None
  else begin
    r.page <-
      Some
        (S.Disk.read (S.Relation.disk r.rel) ~mode:r.io_mode
           r.ids.(r.page_index));
    r.page_index <- r.page_index + 1;
    r.slot <- 0
  end

let reader_next r =
  let rec go () =
    match r.page with
    | None -> None
    | Some page ->
      if r.slot < S.Page.count page then begin
        let tup = S.Page.get page ~tuple_width:r.tuple_width r.slot in
        r.slot <- r.slot + 1;
        Some tup
      end
      else begin
        reader_refill r;
        go ()
      end
  in
  go ()

let make_reader ~io_mode rel =
  S.Relation.seal rel;
  let r =
    {
      rel;
      ids = S.Relation.page_ids rel;
      tuple_width = S.Schema.tuple_width (S.Relation.schema rel);
      page_index = 0;
      page = None;
      slot = 0;
      io_mode;
    }
  in
  reader_refill r;
  r

let cursor_of_runs ~schema runs =
  let env =
    match runs with
    | r :: _ -> S.Relation.env r
    | [] -> S.Env.create () (* empty cursor needs no instrumentation *)
  in
  let io_mode = if List.length runs > 1 then S.Disk.Rand else S.Disk.Seq in
  let cmp (ta, _) (tb, _) =
    S.Env.charge_comp env;
    S.Tuple.compare_keys schema ta tb
  in
  (* comp per comparison, swap per element exchange (see Run_gen). *)
  let heap = U.Heap.create ~on_swap:(fun () -> S.Env.charge_swap env) ~cmp () in
  List.iter
    (fun run ->
      let r = make_reader ~io_mode run in
      match reader_next r with
      | Some tup -> U.Heap.push heap (tup, r)
      | None -> ())
    runs;
  { heap; lookahead = None }

let advance c =
  match U.Heap.pop c.heap with
  | None -> None
  | Some (tup, r) ->
    (match reader_next r with
    | Some nxt -> U.Heap.push c.heap (nxt, r)
    | None -> ());
    Some tup

let peek c =
  match c.lookahead with
  | Some _ as v -> v
  | None ->
    let v = advance c in
    c.lookahead <- v;
    v

let next c =
  match c.lookahead with
  | Some _ as v ->
    c.lookahead <- None;
    v
  | None -> advance c

(* Merge one group of runs into a single longer run (charged writes). *)
let merge_group ~schema runs =
  match runs with
  | [] -> invalid_arg "External_sort.merge_group: no runs to merge"
  | [ single ] -> single
  | first :: _ ->
    let out =
      S.Relation.create
        ~disk:(S.Relation.disk first)
        ~name:(S.Relation.name first ^ ".merged")
        ~schema
    in
    let cursor = cursor_of_runs ~schema runs in
    let rec drain () =
      match next cursor with
      | Some tup ->
        S.Relation.append out tup;
        drain ()
      | None -> ()
    in
    drain ();
    S.Relation.seal out;
    List.iter S.Relation.free_pages runs;
    out

let rec reduce_runs ~mem_pages ~limit runs =
  if limit < 1 then invalid_arg "External_sort.reduce_runs: limit < 1";
  if List.compare_length_with runs limit <= 0 then runs
  else begin
    let schema =
      match runs with
      | r :: _ -> S.Relation.schema r
      | [] -> assert false
    in
    let group_size = max 2 mem_pages in
    let rec take n l =
      if n = 0 then ([], l)
      else
        match l with
        | [] -> ([], [])
        | x :: rest ->
          let g, tail = take (n - 1) rest in
          (x :: g, tail)
    in
    let rec pass acc l =
      match l with
      | [] -> List.rev acc
      | _ ->
        let group, rest = take group_size l in
        pass (merge_group ~schema group :: acc) rest
    in
    reduce_runs ~mem_pages ~limit (pass [] runs)
  end

let sort ~mem_pages rel =
  let schema = S.Relation.schema rel in
  let runs = Run_gen.runs ~mem_pages rel in
  let runs = reduce_runs ~mem_pages ~limit:mem_pages runs in
  let cursor = cursor_of_runs ~schema runs in
  let out =
    S.Relation.create ~disk:(S.Relation.disk rel)
      ~name:(S.Relation.name rel ^ ".sorted") ~schema
  in
  let rec drain () =
    match next cursor with
    | Some tup ->
      S.Relation.append out tup;
      drain ()
    | None -> ()
  in
  drain ();
  S.Relation.seal out;
  List.iter S.Relation.free_pages runs;
  out
