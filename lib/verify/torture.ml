module Fault = Mmdb_fault.Fault
module Fault_plan = Mmdb_fault.Fault_plan
module R = Mmdb_recovery
module RM = R.Recovery_manager
module Gen = QCheck2.Gen

type failure = {
  spec : string;
  config : RM.config;
  violations : string list;
}

type report = {
  runs : int;
  restart_runs : int;
  flagged : int;
  tally : Fault.tally;
  events : (string * int) list;
  counterexample : failure option;
}

type crash =
  | After of int  (** right after this many submissions *)
  | At of int  (** a position on [scale] over the probe's crash instants *)

(* A restart crash: a position on [scale] over all of the replay's steps,
   or over its write-back steps only.  Write-back follows redo and undo
   and is where a crash meets a half-applied undo, so half the restart
   crashes land there. *)
type restart = Any_step of int | Write_back of int

(* One drawn case.  The crash instant and the restart-crash step are
   positions on [scale], resolved against probe runs of the same
   configuration, so a position that shrinks moves its crash earlier. *)
type case = {
  strategy : R.Wal.strategy;
  atoms : string list;
  txns : int;
  crash : crash;
  steps : restart option;
  workers : int;
  logging : RM.logging_mode;
  domains : bool;
}

let scale = 1024

let strategies =
  [
    R.Wal.Conventional;
    R.Wal.Group_commit;
    R.Wal.Partitioned { devices = 2 };
    R.Wal.Stable { devices = 2; capacity_bytes = 8192; compressed = true };
  ]

let atoms =
  List.filter_map
    (fun (name, _) -> if name = "none" then None else Some name)
    Fault_plan.spec_names

let gen =
  let open Gen in
  let* txns = int_range 1 48
  and* steps =
    option ~ratio:0.5
      (oneof
         [
           map (fun p -> Any_step p) (int_bound (scale - 1));
           map (fun p -> Write_back p) (int_bound (scale - 1));
         ])
  in
  let+ strategy = oneofl strategies
  and+ atoms = list_size (int_bound 2) (oneofl atoms)
  and+ crash =
    oneof
      [
        map (fun k -> After k) (int_range 1 txns);
        map (fun p -> At p) (int_bound (scale - 1));
      ]
  and+ workers = int_range 1 4
  and+ logging =
    oneofl [ RM.Value_logging; RM.Command_logging; RM.Adaptive_logging ]
  and+ domains = if steps = None then bool else pure false in
  { strategy; atoms; txns; crash; steps; workers; logging; domains }

let spec_of c = if c.atoms = [] then "none" else String.concat "," c.atoms

(* Small, contended workload: every run is milliseconds, so a check can
   afford thousands of cases. *)
let base_config ~seed c =
  let faults =
    match Fault_plan.of_spec (spec_of c) with
    | Ok rules -> rules
    (* perf_lint: error path; raises immediately *)
    | Error m -> invalid_arg ("Torture: bad fault atom: " ^ m)
  in
  {
    RM.default_config with
    RM.nrecords = 64;
    records_per_page = 8;
    updates_per_txn = 4;
    n_txns = c.txns;
    checkpoint_every = Some (max 4 (c.txns / 3));
    strategy = c.strategy;
    faults;
    seed;
    replay =
      { RM.default_replay with RM.workers = c.workers; logging = c.logging };
  }

(* Crash instants a crash-free probe of [cfg] exposes: just after each
   log-page write starts and at its midpoint, between arrivals, and
   well past quiesce (a clean-shutdown control). *)
let crash_instants cfg =
  let spans = (RM.run cfg).RM.page_spans in
  let quiesce = List.fold_left (fun acc (_, c) -> Float.max acc c) 0.0 spans in
  let arrivals =
    List.init cfg.RM.n_txns (fun i -> (float_of_int i *. 1e-3) +. 5e-4)
  in
  List.concat_map (fun (s, c) -> [ s +. 1e-6; (s +. c) /. 2.0 ]) spans
  |> List.rev_append arrivals
  |> List.cons (quiesce +. 1.0)
  |> List.filter (fun t -> t > 0.0)
  |> List.sort_uniq compare |> Array.of_list

(* The config a case runs: its crash resolved against a crash-free
   probe, and its restart crash against the same crash's recovery run
   without one, as a step in [1, redo + undo + pages written back] or,
   for [Write_back], in [redo + undo + 1, redo + undo + pages written
   back]. *)
let resolve ~seed c =
  let cfg = base_config ~seed c in
  let cfg =
    match c.crash with
    | After k -> { cfg with RM.crash_after = Some k }
    | At p ->
      let instants = crash_instants cfg in
      let at = instants.(p * Array.length instants / scale) in
      { cfg with RM.crash_at = Some at }
  in
  let crash_steps =
    Option.map
      (fun restart ->
        let rs = (RM.run cfg).RM.recover_stats in
        let replayed = rs.R.Kv_store.redo_applied + rs.R.Kv_store.undo_applied in
        let written = rs.R.Kv_store.pages_written_back in
        match restart with
        | Any_step p -> 1 + (p * max 1 (replayed + written) / scale)
        | Write_back p -> replayed + 1 + (p * max 1 written / scale))
      c.steps
  in
  { cfg with
    RM.replay =
      { cfg.RM.replay with RM.crash_steps; use_domains = c.domains } }

let violations (o : RM.outcome) =
  List.filter_map
    (fun (bad, name) -> if bad then Some name else None)
    [
      (not o.RM.consistent, "state diverges from golden replay");
      (not o.RM.money_conserved, "money not conserved");
      (not o.RM.durability_ok, "acknowledged commit lost");
      ( not (Log_check.ok ~complete:false o.RM.durable_log),
        "durable log fails protocol audit" );
    ]

(* A broken invariant the fault plane reported unrecoverable.  Any
   other violation is silent corruption. *)
let flagged (o : RM.outcome) v =
  v <> [] && o.RM.fault_tally.Fault.unrecoverable > 0

let add_tally ~into (t : Fault.tally) =
  into.Fault.injected <- into.Fault.injected + t.Fault.injected;
  into.Fault.detected <- into.Fault.detected + t.Fault.detected;
  into.Fault.retried <- into.Fault.retried + t.Fault.retried;
  into.Fault.repaired <- into.Fault.repaired + t.Fault.repaired;
  into.Fault.unrecoverable <- into.Fault.unrecoverable + t.Fault.unrecoverable;
  into.Fault.retry_backoff <- into.Fault.retry_backoff +. t.Fault.retry_backoff

let run ?(seed = 7) ?(count = 2000) () =
  let runs = ref 0 and restarts = ref 0 and nflagged = ref 0 in
  let tally = Fault.tally_create () in
  let events = Hashtbl.create 16 in
  let holds ~counted c =
    let o = RM.run (resolve ~seed c) in
    let v = violations o in
    if counted then begin
      incr runs;
      restarts := !restarts + (o.RM.recovery_attempts - 1);
      add_tally ~into:tally o.RM.fault_tally;
      List.iter
        (fun (code, n) ->
          Hashtbl.replace events code
            (n + Option.value ~default:0 (Hashtbl.find_opt events code)))
        o.RM.fault_events;
      if flagged o v then incr nflagged
    end;
    v = [] || flagged o v
  in
  let failure (c, raised) =
    let config = resolve ~seed c in
    let violations =
      match raised with
      | Some e -> [ "raised " ^ Printexc.to_string e ]
      | None -> violations (RM.run config)
    in
    { spec = spec_of c; config; violations }
  in
  let counterexample =
    Audit.property ~name:"Torture.run" ~seed ~count gen holds
    |> Option.map failure
  in
  {
    runs = !runs;
    restart_runs = !restarts;
    flagged = !nflagged;
    tally;
    events =
      Hashtbl.fold (fun c n acc -> (c, n) :: acc) events []
      |> List.sort compare;
    counterexample;
  }

let ok r = r.counterexample = None

let pp_failure ppf f =
  let c = f.config in
  let r = c.RM.replay in
  Format.fprintf ppf
    "%s, faults %s, %d txns (checkpoint every %d), %s%s, %d worker(s), %s \
     logging%s, seed %d: %s"
    (R.Tps_sim.strategy_label c.RM.strategy)
    f.spec c.RM.n_txns
    (Option.value ~default:0 c.RM.checkpoint_every)
    (match (c.RM.crash_at, c.RM.crash_after) with
    | Some t, _ -> Printf.sprintf "crash_at %.9g" t
    | None, Some k -> Printf.sprintf "crash_after %d" k
    | None, None -> "no crash")
    (match r.RM.crash_steps with
    | Some n -> Printf.sprintf ", crash_steps %d" n
    | None -> "")
    r.RM.workers
    (match r.RM.logging with
    | RM.Value_logging -> "value"
    | RM.Command_logging -> "command"
    | RM.Adaptive_logging -> "adaptive")
    (if r.RM.use_domains then " on domains" else "")
    c.RM.seed
    (String.concat "; " f.violations)

let pp ppf r =
  Format.fprintf ppf
    "%d crash-recovery runs (%d mid-replay restarts, %d flagged \
     unrecoverable); faults %a@."
    r.runs r.restart_runs r.flagged Fault.pp_tally r.tally;
  if r.events <> [] then begin
    Format.fprintf ppf "fault events:";
    List.iter (fun (c, n) -> Format.fprintf ppf " %s=%d" c n) r.events;
    Format.fprintf ppf "@."
  end;
  match r.counterexample with
  | None -> Format.fprintf ppf "torture: ok (no silent corruption)@."
  | Some f ->
    Format.fprintf ppf "SILENT (shrunk): %a@." pp_failure f;
    Format.fprintf ppf "torture: silent corruption@."
