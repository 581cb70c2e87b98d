module R = Mmdb_recovery
module U = Mmdb_util
module F = Mmdb_fault.Fault_plan
module Fault = Mmdb_fault.Fault
module O = Mmdb_overload.Overload

type config = {
  seed : int;
  duration : float;
  spike_mult : float;
  protected : bool;
  storm : bool;
  record_schedule : bool;
}

let default_config =
  {
    seed = 7;
    duration = 3.0;
    spike_mult = 10.0;
    protected = true;
    storm = false;
    record_schedule = false;
  }

(* The workload and service settings no run varies; [base_rate] is the
   offered load outside the spike. *)
let nrecords = 512
let base_rate = 700.0
let spike_lo, spike_hi = (1.0, 2.0)
let analytic_fraction = 0.15
let deadline_budget = 0.05
let work_per_update = 250e-6
let rate_limit = 900.0
let burst = 64.0
let max_lag = 0.05
let retry_budget = 8

type bucket = {
  b_start : float;
  b_arrivals : int;
  b_goodput : int;  (** committed and durable within deadline *)
  b_shed : int;
  b_timed_out : int;
  b_late : int;  (** committed but durable past the deadline *)
  b_p99_latency : float;  (** of durable commits arriving in this bucket *)
}

type outcome = {
  arrivals : int;
  committed : int;
  goodput_txns : int;
  goodput_tps : float;
  shed : int;
  timed_out : int;
  late : int;
  io_failures : int;
  p50_latency : float;
  p99_latency : float;
  shed_codes : (string * int) list;
  tally : O.tally;
  breaker_trips : int;
  breaker_reopens : int;
  breaker_final : string;
  buckets : bucket list;
  money_conserved : bool;
  audit_errors : int;
      (** Schedule_check errors over the recorded schedule; 0 when
          [record_schedule] was off (nothing to audit) *)
}

let bucket_width = 0.1

let percentile sorted p =
  match Array.length sorted with
  | 0 -> 0.0
  | n ->
    let i = int_of_float (Float.of_int (n - 1) *. p) in
    sorted.(min (n - 1) (max 0 i))

(* An arrival that never got a ticket: shed with a typed code, or lost
   to an I/O error that escaped the retry ride. *)
type fate = Shed_code of string | Io_failed

let run cfg =
  if cfg.duration <= 0.0 then invalid_arg "Overload_sim: duration <= 0";
  let rng = U.Xorshift.create cfg.seed in
  let tally = O.tally_create () in
  let admission =
    if cfg.protected then
      Some
        (O.Admission.create ~rate:rate_limit ~burst ~max_lag ~tally ())
    else None
  in
  let breaker = O.Breaker.create ~tally () in
  let faults =
    if not cfg.storm then None
    else
      match F.of_spec "storm" with
      | Ok rules -> Some (F.create ~seed:cfg.seed rules)
      | Error m -> invalid_arg ("Overload_sim: " ^ m)
  in
  let db =
    Txn_db.create ~strategy:R.Wal.Group_commit ~nrecords
      ~record_schedule:cfg.record_schedule ?admission ~work_per_update
      ?faults ~breaker ~retry_budget ()
  in
  let rate_at t =
    if t >= spike_lo && t < spike_hi then base_rate *. cfg.spike_mult
    else base_rate
  in
  (* Open loop: arrivals keep coming at the offered rate whether or not
     the service keeps up — the regime where an unprotected server
     collapses (§5.2's log device models the bottleneck: its queue only
     grows).  Each arrival is (txn id option, arrival time, expiry,
     immediate fate if it never got a ticket). *)
  let arrivals = ref [] in
  let io_failures = ref 0 in
  let next = ref (U.Xorshift.exponential rng ~mean:(1.0 /. base_rate)) in
  while !next < cfg.duration do
    let at = !next in
    (* Open loop: the arrival happened at [at] whether the service was
       ready or not.  If the service clock is already past [at] the
       transaction starts late — queued behind earlier work — and its
       deadline still anchors at the {e scheduled} arrival, so a
       backlogged service blows deadlines instead of stretching time. *)
    if at > Txn_db.now db then Txn_db.advance db (at -. Txn_db.now db);
    let arrival = at in
    let deadline = O.Deadline.make ~now:arrival ~budget:deadline_budget in
    let priority =
      if U.Xorshift.float rng 1.0 < analytic_fraction then O.Analytic
      else O.Oltp
    in
    let a = U.Xorshift.zipf rng ~n:nrecords ~theta:0.8 in
    let b = (a + 1 + U.Xorshift.int rng (nrecords - 1)) mod nrecords in
    let delta = 1 + U.Xorshift.int rng 100 in
    let updates = [ (a, delta); (b, -delta) ] in
    (* Without enforcement the service never aborts expired work — the
       deadline exists only in the client's eyes (lateness), which is
       what lets the backlog snowball: the collapse control. *)
    let enforced = if cfg.protected then Some deadline else None in
    (match Txn_db.transact ~priority ?deadline:enforced db updates with
    | o ->
      arrivals :=
        (Some o.Txn_db.txn_id, arrival, O.Deadline.expires deadline, None)
        :: !arrivals
    | exception O.Shed r ->
      arrivals :=
        (None, arrival, O.Deadline.expires deadline, Some (Shed_code r.O.code))
        :: !arrivals
    | exception Fault.Io_error _ ->
      incr io_failures;
      arrivals :=
        (None, arrival, O.Deadline.expires deadline, Some Io_failed)
        :: !arrivals);
    next := at +. U.Xorshift.exponential rng ~mean:(1.0 /. rate_at at)
  done;
  (* Drain: resolve every group-commit ticket so completions are known.
     The flush can itself hit the storm's transients. *)
  (try Txn_db.flush db
   with Fault.Io_error _ -> incr io_failures);
  let arrivals = List.rev !arrivals in
  let n_buckets =
    int_of_float (Float.ceil (cfg.duration /. bucket_width)) |> max 1
  in
  let b_arr = Array.make n_buckets 0 in
  let b_good = Array.make n_buckets 0 in
  let b_shed = Array.make n_buckets 0 in
  let b_timeout = Array.make n_buckets 0 in
  let b_late = Array.make n_buckets 0 in
  let b_lat = Array.make n_buckets [] in
  let latencies = ref [] in
  let committed = ref 0 in
  let goodput_txns = ref 0 in
  let shed = ref 0 in
  let timed_out = ref 0 in
  let late = ref 0 in
  let codes = Hashtbl.create 16 in
  let note_code c =
    Hashtbl.replace codes c (1 + Option.value ~default:0 (Hashtbl.find_opt codes c))
  in
  List.iter
    (fun (txn, arrival, expires, immediate) ->
      let bi = min (n_buckets - 1) (int_of_float (arrival /. bucket_width)) in
      b_arr.(bi) <- b_arr.(bi) + 1;
      match (txn, immediate) with
      | Some id, None -> (
        match Txn_db.completion db ~txn:id with
        | Some durable_at ->
          incr committed;
          let lat = durable_at -. arrival in
          latencies := lat :: !latencies;
          b_lat.(bi) <- lat :: b_lat.(bi);
          if durable_at <= expires then begin
            incr goodput_txns;
            b_good.(bi) <- b_good.(bi) + 1
          end
          else begin
            incr late;
            b_late.(bi) <- b_late.(bi) + 1
          end
        | None ->
          (* ticket never resolved (lost in the final-flush fault) *)
          incr late;
          b_late.(bi) <- b_late.(bi) + 1)
      | _, Some (Shed_code c) ->
        note_code c;
        if c = "OVLD004" || c = "OVLD006" then begin
          incr timed_out;
          b_timeout.(bi) <- b_timeout.(bi) + 1
        end
        else begin
          incr shed;
          b_shed.(bi) <- b_shed.(bi) + 1
        end
      | _, Some Io_failed | None, None -> ())
    arrivals;
  let sorted = Array.of_list !latencies in
  Array.sort compare sorted;
  let buckets =
    List.init n_buckets (fun i ->
        let l = Array.of_list b_lat.(i) in
        Array.sort compare l;
        {
          b_start = float_of_int i *. bucket_width;
          b_arrivals = b_arr.(i);
          b_goodput = b_good.(i);
          b_shed = b_shed.(i);
          b_timed_out = b_timeout.(i);
          b_late = b_late.(i);
          b_p99_latency = percentile l 0.99;
        })
  in
  let money =
    let sum = ref 0 in
    for s = 0 to nrecords - 1 do
      sum := !sum + Txn_db.balance db s
    done;
    !sum = 0
  in
  let audit_errors =
    if not cfg.record_schedule then 0
    else
      List.length
        (U.Diag.errors
           (Mmdb_verify.Schedule_check.audit ~log:(Txn_db.log_records db)
              (Txn_db.schedule db)))
  in
  {
    arrivals = List.length arrivals;
    committed = !committed;
    goodput_txns = !goodput_txns;
    goodput_tps = float_of_int !goodput_txns /. cfg.duration;
    shed = !shed;
    timed_out = !timed_out;
    late = !late;
    io_failures = !io_failures;
    p50_latency = percentile sorted 0.5;
    p99_latency = percentile sorted 0.99;
    shed_codes =
      List.sort compare
        (Hashtbl.fold (fun c n acc -> (c, n) :: acc) codes []);
    tally;
    breaker_trips = O.Breaker.trips breaker;
    breaker_reopens = O.Breaker.reopens breaker;
    breaker_final =
      O.Breaker.state_name (O.Breaker.state breaker ~now:(Txn_db.now db));
    buckets;
    money_conserved = money;
    audit_errors;
  }
