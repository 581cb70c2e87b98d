let available = true

let run ~n f =
  if n < 0 then invalid_arg "Domain_runner.run: n < 0";
  let first = Atomic.make None in
  let fail e bt = ignore (Atomic.compare_and_set first None (Some (e, bt))) in
  let worker i = try f i with e -> fail e (Printexc.get_raw_backtrace ()) in
  (* A spawn can fail (the runtime caps the domain count); the workers
     already started still run to the end and are joined. *)
  let spawn i =
    match Domain.spawn (fun () -> worker i) with
    | d -> Some d
    | exception e ->
      fail e (Printexc.get_raw_backtrace ());
      None
  in
  let others = List.filter_map spawn (List.init (max 0 (n - 1)) succ) in
  if n > 0 then worker 0;
  List.iter Domain.join others;
  match Atomic.get first with
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> ()
