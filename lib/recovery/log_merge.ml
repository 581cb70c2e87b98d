(* Pages are ordered by (completion, min LSN); a record-free page has no
   LSN and keys as max_int.  [List.merge] is stable and keeps the left
   list's page first on a tie, so folding the fragments left to right
   breaks ties by fragment position.  Completions strictly increase
   within a device, so no two pages of one fragment tie. *)
let merge fragments =
  let keyed (completion, records) =
    let min_lsn =
      List.fold_left (fun acc r -> Int.min acc (Log_record.lsn r)) max_int records
    in
    (completion, min_lsn, records)
  in
  let cmp (ca, la, _) (cb, lb, _) =
    let c = Float.compare ca cb in
    if c <> 0 then c else Int.compare la lb
  in
  List.fold_left (fun acc pages -> List.merge cmp acc (List.map keyed pages)) [] fragments
  |> List.concat_map (fun (_, _, records) -> records)
