module U = Mmdb_util

type stream = {
  index : int; (* position in the input fragment list *)
  mutable pages : (float * Log_record.t list) list; (* ascending *)
}

(* Pages are ordered by (completion, min LSN, fragment index).  The
   fragment index makes ties deterministic: two pages can share a
   completion timestamp (devices finishing in the same simulated
   instant) and a record-free page has no LSN at all (min_lsn folds to
   max_int), and the underlying binary heap is not stable, so without
   the third component the merged order would depend on heap
   internals. *)
let page_key ~index (completion, records) =
  let min_lsn =
    List.fold_left (fun acc r -> Int.min acc (Log_record.lsn r)) max_int records
  in
  (completion, min_lsn, index)

let merge fragments =
  let streams = List.mapi (fun index pages -> { index; pages }) fragments in
  let cmp ((ca, la, ia), _) ((cb, lb, ib), _) =
    let c = Float.compare ca cb and l = Int.compare la lb in
    if c <> 0 then c else if l <> 0 then l else Int.compare ia ib
  in
  let heap = U.Heap.create ~cmp () in
  List.iter
    (fun s ->
      match s.pages with
      | page :: rest ->
        s.pages <- rest;
        U.Heap.push heap (page_key ~index:s.index page, (page, s))
      | [] -> ())
    streams;
  (* Pages newest first; the output is then built back to front with
     one cons per record (a page is short, so [@] copies little). *)
  let rev_pages = ref [] in
  let rec drain () =
    match U.Heap.pop heap with
    | None -> ()
    | Some (_, ((_, records), s)) ->
      rev_pages := records :: !rev_pages;
      (match s.pages with
      | page :: rest ->
        s.pages <- rest;
        U.Heap.push heap (page_key ~index:s.index page, (page, s))
      | [] -> ());
      drain ()
  in
  drain ();
  List.fold_left (fun out records -> records @ out) [] !rev_pages
