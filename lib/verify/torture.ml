module Fault = Mmdb_fault.Fault
module Fault_plan = Mmdb_fault.Fault_plan
module R = Mmdb_recovery

type verdict =
  | Clean
  | Repaired
  | Flagged of string list
  | Silent of string list

type failure = {
  f_strategy : string;
  f_spec : string;
  f_crash_at : float;
  f_crash_steps : int option;
  f_violations : string list;
}

type combo = {
  cb_strategy : string;
  cb_spec : string;
  cb_runs : int;
  cb_clean : int;
  cb_repaired : int;
  cb_flagged : int;
  cb_silent : int;
}

type report = {
  combos : combo list;
  total_runs : int;
  restart_runs : int;
  silent : failure list;
  flagged : failure list;
  tally : Fault.tally;
  events : (string * int) list;
}

let default_specs =
  [ "none"; "torn-tail"; "bitflip"; "torn-tail,bitflip"; "io-error";
    "battery-droop"; "media"; "snapshot-rot" ]

let default_strategies =
  [
    R.Wal.Conventional;
    R.Wal.Group_commit;
    R.Wal.Partitioned { devices = 2 };
    R.Wal.Stable { devices = 2; capacity_bytes = 8192; compressed = true };
  ]

(* Sweep under the hardest replay configuration: four partitions with
   adaptive logging, so every crash point also exercises
   cross-partition commands split by partition and the value/command
   decision.  Simulated scheduler keeps the sweep deterministic in
   [seed]. *)
let default_replay =
  {
    R.Recovery_manager.workers = 4;
    use_domains = false;
    logging = R.Recovery_manager.Adaptive_logging;
    crash_steps = None;
    record_replay = false;
  }

(* Small, contended workload: every run is milliseconds, so the sweep can
   afford hundreds of crash points. *)
let base_config ~seed ~txns strategy rules =
  {
    R.Recovery_manager.default_config with
    R.Recovery_manager.nrecords = 64;
    records_per_page = 8;
    updates_per_txn = 4;
    n_txns = txns;
    checkpoint_every = Some (max 4 (txns / 3));
    strategy;
    faults = rules;
    seed;
    replay = default_replay;
  }

(* Candidate crash instants for one (strategy, spec) combination, taken
   from a crash-free probe run: just after each log-page write is issued
   and at its midpoint (mid-page-write torture), between transaction
   arrivals, and well past quiesce (clean-shutdown control). *)
let crash_points (probe : R.Recovery_manager.outcome) ~txns ~max_points =
  let pts = ref [] in
  let last_completion = ref 0.0 in
  List.iter
    (fun (s, c) ->
      last_completion := Float.max !last_completion c;
      pts := (s +. 1e-6) :: ((s +. c) /. 2.0) :: !pts)
    probe.R.Recovery_manager.page_spans;
  let stride = max 1 (txns / 8) in
  let i = ref 0 in
  while !i < txns do
    pts := ((float_of_int !i *. 1e-3) +. 5e-4) :: !pts;
    i := !i + stride
  done;
  pts := (!last_completion +. 1.0) :: !pts;
  let all = List.sort_uniq compare (List.filter (fun t -> t > 0.0) !pts) in
  let n = List.length all in
  if n <= max_points then all
  else
    (* Evenly subsample to the cap. *)
    List.filteri (fun i _ -> i * max_points / n <> (i - 1) * max_points / n) all

(* The sweep's central property: no silent corruption.  Either every
   invariant holds, or the fault plane reported an unrecoverable loss
   (battery droop dropping acknowledged commits, at-rest media damage
   destroying committed log records).  An invariant violation without an
   unrecoverable report is a bug in the recovery stack. *)
let evaluate (o : R.Recovery_manager.outcome) =
  let violations =
    List.filter_map
      (fun (bad, name) -> if bad then Some name else None)
      [
        (not o.R.Recovery_manager.consistent, "state diverges from golden replay");
        (not o.R.Recovery_manager.money_conserved, "money not conserved");
        (not o.R.Recovery_manager.durability_ok, "acknowledged commit lost");
        ( not (Log_check.ok ~complete:false o.R.Recovery_manager.durable_log),
          "durable log fails protocol audit" );
      ]
  in
  match violations with
  | [] ->
    if Fault.tally_total o.R.Recovery_manager.fault_tally = 0 then Clean
    else Repaired
  | v ->
    if o.R.Recovery_manager.fault_tally.Fault.unrecoverable > 0 then Flagged v
    else Silent v

let add_tally ~into (t : Fault.tally) =
  into.Fault.injected <- into.Fault.injected + t.Fault.injected;
  into.Fault.detected <- into.Fault.detected + t.Fault.detected;
  into.Fault.retried <- into.Fault.retried + t.Fault.retried;
  into.Fault.repaired <- into.Fault.repaired + t.Fault.repaired;
  into.Fault.unrecoverable <- into.Fault.unrecoverable + t.Fault.unrecoverable;
  into.Fault.retry_backoff <- into.Fault.retry_backoff +. t.Fault.retry_backoff

(* Up to [k] crash points spread evenly across [points] (first, interior,
   last): the late points sit past quiesce, where the merged log is
   longest and a mid-replay crash interrupts the most work. *)
let spread_points k points =
  let arr = Array.of_list points in
  let n = Array.length arr in
  if n = 0 || k <= 0 then []
  else begin
    let k = min k n in
    List.init k (fun i -> arr.(i * (n - 1) / max 1 (k - 1)))
    |> List.sort_uniq compare
  end

(* The restart-crash matrix: this many crash points per combo, each re-run
   once per entry of [restart_steps] with the recovery itself crashed after
   that many replay/write-back steps. *)
let restart_points_per_combo = 3
let restart_steps = [ 1; 8; 64 ]

let run ?(seed = 7) ?(txns = 48) ?(specs = default_specs)
    ?(strategies = default_strategies) ?(max_points_per_combo = 32) () =
  if txns < 1 then invalid_arg "Torture.run: txns < 1";
  if max_points_per_combo < 1 then
    invalid_arg "Torture.run: max_points_per_combo < 1";
  let combos = ref [] in
  let silent = ref [] in
  let flagged = ref [] in
  let total = ref 0 in
  let restarts = ref 0 in
  let tally = Fault.tally_create () in
  let events = Hashtbl.create 16 in
  List.iter
    (fun strategy ->
      let label = R.Tps_sim.strategy_label strategy in
      List.iter
        (fun spec ->
          let rules =
            match Fault_plan.of_spec spec with
            | Ok r -> r
            (* perf_lint: error path; raises immediately *)
            | Error m -> invalid_arg ("Torture: bad fault spec: " ^ m)
          in
          let cfg = base_config ~seed ~txns strategy rules in
          let probe = R.Recovery_manager.run cfg in
          let points =
            crash_points probe ~txns ~max_points:max_points_per_combo
          in
          let cb = ref
              {
                cb_strategy = label;
                cb_spec = spec;
                cb_runs = 0;
                cb_clean = 0;
                cb_repaired = 0;
                cb_flagged = 0;
                cb_silent = 0;
              }
          in
          let exec ~ct ~steps =
            let o =
              R.Recovery_manager.run
                { cfg with
                  R.Recovery_manager.crash_at = Some ct;
                  replay =
                    { cfg.R.Recovery_manager.replay with
                      R.Recovery_manager.crash_steps = steps };
                }
            in
            incr total;
            restarts :=
              !restarts + max 0 (o.R.Recovery_manager.recovery_attempts - 1);
            add_tally ~into:tally o.R.Recovery_manager.fault_tally;
            List.iter
              (fun (code, n) ->
                Hashtbl.replace events code
                  (n + Option.value ~default:0 (Hashtbl.find_opt events code)))
              o.R.Recovery_manager.fault_events;
            let fail v =
              {
                f_strategy = label;
                f_spec = spec;
                f_crash_at = ct;
                f_crash_steps = steps;
                f_violations = v;
              }
            in
            match evaluate o with
            | Clean ->
              cb := { !cb with cb_runs = !cb.cb_runs + 1;
                      cb_clean = !cb.cb_clean + 1 }
            | Repaired ->
              cb := { !cb with cb_runs = !cb.cb_runs + 1;
                      cb_repaired = !cb.cb_repaired + 1 }
            | Flagged v ->
              flagged := fail v :: !flagged;
              cb := { !cb with cb_runs = !cb.cb_runs + 1;
                      cb_flagged = !cb.cb_flagged + 1 }
            | Silent v ->
              silent := fail v :: !silent;
              cb := { !cb with cb_runs = !cb.cb_runs + 1;
                      cb_silent = !cb.cb_silent + 1 }
          in
          List.iter (fun ct -> exec ~ct ~steps:None) points;
          (* Restart-crash runs: crash at [ct], then crash {e again} after
             [n] replay/write-back steps of the resulting recovery, restart,
             and demand the same no-silent-corruption property. *)
          List.iter
            (fun ct ->
              List.iter (fun n -> exec ~ct ~steps:(Some n)) restart_steps)
            (spread_points restart_points_per_combo points);
          combos := !cb :: !combos)
        specs)
    strategies;
  {
    combos = List.rev !combos;
    total_runs = !total;
    restart_runs = !restarts;
    silent = List.rev !silent;
    flagged = List.rev !flagged;
    tally;
    events =
      Hashtbl.fold (fun c n acc -> (c, n) :: acc) events []
      |> List.sort compare;
  }

let ok r = r.silent = []

let pp_failure ppf f =
  Format.fprintf ppf "%-14s %-20s crash_at=%.6f%s: %s" f.f_strategy f.f_spec
    f.f_crash_at
    (match f.f_crash_steps with
    | None -> ""
    | Some n -> Printf.sprintf " crash_steps=%d" n)
    (String.concat "; " f.f_violations)

let pp ppf r =
  Format.fprintf ppf "%-14s %-20s %5s %6s %9s %8s %7s@." "strategy" "faults"
    "runs" "clean" "repaired" "flagged" "silent";
  List.iter
    (fun cb ->
      Format.fprintf ppf "%-14s %-20s %5d %6d %9d %8d %7d@." cb.cb_strategy
        cb.cb_spec cb.cb_runs cb.cb_clean cb.cb_repaired cb.cb_flagged
        cb.cb_silent)
    r.combos;
  Format.fprintf ppf
    "@.%d crash-recovery runs (%d mid-replay restarts); faults %a@."
    r.total_runs r.restart_runs Fault.pp_tally r.tally;
  if r.events <> [] then begin
    Format.fprintf ppf "fault events:";
    List.iter (fun (c, n) -> Format.fprintf ppf " %s=%d" c n) r.events;
    Format.fprintf ppf "@."
  end;
  List.iter (fun f -> Format.fprintf ppf "SILENT: %a@." pp_failure f) r.silent;
  if r.silent = [] then
    Format.fprintf ppf "torture: ok (no silent corruption)@."
  else
    Format.fprintf ppf "torture: %d silent corruption case(s)@."
      (List.length r.silent)
