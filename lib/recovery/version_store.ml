type t = {
  chains : (float * int) list array; (* newest first: (commit_ts, value) *)
  mutable total_versions : int;
  recorder : Schedule.recorder option;
}

let create ?recorder ~nrecords () =
  if nrecords <= 0 then invalid_arg "Version_store.create: nrecords <= 0";
  {
    chains = Array.make nrecords [ (Float.neg_infinity, 0) ];
    total_versions = nrecords;
    recorder;
  }

let check_slot t slot =
  if slot < 0 || slot >= Array.length t.chains then
    invalid_arg "Version_store: slot out of range"

let write ?txn ?(domain = 0) t ~ts ~slot ~value =
  check_slot t slot;
  (match t.chains.(slot) with
  | (newest, _) :: _ when ts <= newest ->
    invalid_arg "Version_store.write: timestamp not newer than latest version"
  | _ -> ());
  (match txn with
  | Some txn ->
    Schedule.emit t.recorder ~key:slot ~domain ~ver:ts ~txn Schedule.Write
  | None -> ());
  t.chains.(slot) <- (ts, value) :: t.chains.(slot);
  t.total_versions <- t.total_versions + 1

let read ?txn ?(domain = 0) t ~ts ~slot =
  check_slot t slot;
  (match txn with
  | Some txn ->
    Schedule.emit t.recorder ~key:slot ~domain ~ver:ts ~txn Schedule.Read
  | None -> ());
  let rec find = function
    | (vts, v) :: _ when vts <= ts -> v
    | _ :: rest -> find rest
    | [] -> 0 (* before the initial version: the zero state *)
  in
  find t.chains.(slot)

let version_count t = t.total_versions

let gc t ~oldest_active_ts =
  let reclaimed = ref 0 in
  Array.iteri
    (fun i chain ->
      (* Keep everything newer than the horizon, plus the first version
         at-or-before it (some active snapshot may still read it). *)
      let rec split kept = function
        | (vts, v) :: rest when vts > oldest_active_ts ->
          split ((vts, v) :: kept) rest
        | (vts, v) :: rest ->
          (* perf_lint: counts the reclaimed tail once per GC'd chain *)
          reclaimed := !reclaimed + List.length rest;
          List.rev ((vts, v) :: kept)
        | [] -> List.rev kept
      in
      t.chains.(i) <- split [] chain)
    t.chains;
  t.total_versions <- t.total_versions - !reclaimed;
  !reclaimed
