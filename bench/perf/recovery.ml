(* recovery: crash and restart.  From one seeded stream of Gray-banking
   transfers, each round builds two log images — group commit, one fuzzy
   checkpoint mid-stream, and a crash at [Wal.quiesce_time], so the open
   buffer page is lost and undo runs — and restarts each with
   [Wal.durable_records] plus a two-domain [Kv_store.recover].

   The value image holds update records only, so replay never meets a
   cross-partition barrier.  Its restart is the measured operation.  The
   adaptive image, over a prefix of the stream, logs each transfer the
   way [Recovery_model]'s rule picks, which at two workers is a command
   record, so replay rendezvouses at every transfer that spans
   partitions.  Its restart is timed and checked too, and reported
   beside the measured one.  ([Recovery_manager.run] is not used: its
   work outside replay grows faster than linearly and would swamp the
   replay time.) *)

module R = Mmdb_recovery
module S = Mmdb_storage
module M = Mmdb_model.Recovery_model
module X = Mmdb_util.Xorshift

type kind = Value | Adaptive

let kind_name = function Value -> "value" | Adaptive -> "adaptive"
let workers = 2
let records_per_page = 20
let gap = 1.0 /. 800.0  (* simulated seconds between arrivals *)

(* Every recovery is one sample, so the tail is the median: no higher
   percentile has ten samples beyond it in a run. *)
let tail_q = 0.5

(* The adaptive image replays a fifth of the stream: each of its
   barriers costs a domain epoch, so it is the slower image per
   transfer. *)
type size = { accounts : int; txns : int; adaptive_txns : int }

let size cfg =
  Bench.scale cfg
    { accounts = 50_000; txns = 100_000; adaptive_txns = 20_000 }
    { accounts = 500; txns = 1_000; adaptive_txns = 200 }

let inputs cfg sz =
  Array.of_list
    (R.Workload.generate ~rng:(X.create cfg.Bench.seed) ~nrecords:sz.accounts ~n:sz.txns ())

let stream sz txns = function Value -> txns | Adaptive -> Array.sub txns 0 sz.adaptive_txns

type image = {
  kv : R.Kv_store.t;
  wal : R.Wal.t;
  crash_at : float;
  tickets : R.Wal.ticket array;
  command_txns : int;
}

let partition slot = slot / records_per_page mod workers

(* Adaptive logging's per-transaction choice, with the replay
   partitioning [Kv_store.recover] uses. *)
let command_logged kind (t : R.Workload.txn) =
  match kind with
  | Value -> false
  | Adaptive ->
    let parts = List.sort_uniq compare (List.map (fun (s, _) -> partition s) t.R.Workload.updates) in
    M.adaptive_command_wins M.gray_banking ~workers
      ~updates_per_txn:(List.length t.R.Workload.updates)
      ~cross_partition:(List.compare_length_with parts 1 > 0)

let build kind sz txns =
  let clock = S.Sim_clock.create () in
  let wal = R.Wal.create ~clock R.Wal.Group_commit in
  let stable = R.Stable_memory.create ~capacity_bytes:(1 lsl 20) in
  let kv = R.Kv_store.create ~nrecords:sz.accounts ~records_per_page ~stable () in
  let lsn = ref 0 in
  let next () =
    incr lsn;
    !lsn
  in
  let command_txns = ref 0 in
  let apply ~lsn (slot, delta) =
    let old_value = R.Kv_store.get kv slot in
    R.Kv_store.apply_update kv ~lsn ~slot ~value:(old_value + delta);
    old_value
  in
  let tickets =
    Array.mapi
      (fun i (t : R.Workload.txn) ->
        let txn = t.R.Workload.txn_id and at = float_of_int i *. gap in
        let begin_ = R.Log_record.Begin { txn; lsn = next () } in
        let records =
          if command_logged kind t then begin
            incr command_txns;
            let lsn = next () in
            List.iter (fun op -> ignore (apply ~lsn op)) t.R.Workload.updates;
            [
              begin_;
              R.Log_record.Command { txn; lsn; ops = t.R.Workload.updates };
              R.Log_record.Commit { txn; lsn = next () };
            ]
          end
          else
            let body =
              List.map
                (fun (slot, delta) ->
                  let lsn = next () in
                  let old_value = apply ~lsn (slot, delta) in
                  R.Log_record.Update { txn; lsn; slot; old_value; new_value = old_value + delta })
                t.R.Workload.updates
            in
            (begin_ :: body) @ [ R.Log_record.Commit { txn; lsn = next () } ]
        in
        let ticket = R.Wal.commit_txn wal ~at ~txn ~deps:[] records in
        if i = (Array.length txns / 2) - 1 then begin
          R.Wal.log_control wal ~at [ R.Log_record.Ckpt_begin { lsn = next () } ];
          ignore (R.Wal.flush wal ~at);
          ignore (R.Kv_store.checkpoint kv);
          R.Wal.log_control wal ~at [ R.Log_record.Ckpt_end { lsn = next () } ]
        end;
        ticket)
      txns
  in
  let last = float_of_int (Array.length txns - 1) *. gap in
  let crash_at = Float.max last (R.Wal.quiesce_time wal) in
  R.Kv_store.crash kv;
  { kv; wal; crash_at; tickets; command_txns = !command_txns }

(* The golden replay: exactly the transfers whose Commit survived.  And
   no transfer whose ticket resolved before the crash may be lost. *)
let check sz txns img durable =
  let committed = Hashtbl.create 1024 in
  List.iter
    (function R.Log_record.Commit { txn; _ } -> Hashtbl.replace committed txn () | _ -> ())
    durable;
  let golden = Array.make sz.accounts 0 in
  Array.iter
    (fun (t : R.Workload.txn) ->
      if Hashtbl.mem committed t.R.Workload.txn_id then R.Workload.apply ~balances:golden t)
    txns;
  let acked_lost =
    Array.exists
      (fun tkt ->
        match R.Wal.ticket_completion tkt with
        | Some c when c <= img.crash_at -> not (Hashtbl.mem committed (R.Wal.ticket_txn tkt))
        | Some _ | None -> false)
      img.tickets
  in
  R.Kv_store.balances img.kv = golden && not acked_lost

(* A restart: read the durable log, replay it on two domains. *)
let recover ?tr kind img =
  let k = kind_name kind in
  Trace.op tr ("recovery.restart." ^ k) (fun () ->
      let durable =
        Trace.span tr ("wal.durable_records." ^ k) (fun () ->
            R.Wal.durable_records img.wal ~at:img.crash_at)
      in
      let stats =
        Trace.span tr ("kv_store.recover." ^ k) (fun () ->
            R.Kv_store.recover img.kv ~workers ~use_domains:true ~log:durable)
      in
      (durable, stats))

(* One two-domain restart of one image. *)
type restart = { ns : int; stats : R.Kv_store.recover_stats; log_bytes : int; command_txns : int }

let restart_of img ns stats =
  { ns; stats; log_bytes = R.Wal.disk_bytes_written img.wal; command_txns = img.command_txns }

(* The value image's restart is the round's measured operation; its
   build is the round's set-up.  The adaptive image is built once the
   value image is dead and collected, then restarted under its own
   timer. *)
let round sz txns =
  let value, setup_ns = Bench.time_ns (fun () -> build Value sz txns) in
  let (durable, stats), phase = Bench.measured_phase ~state:value (fun () -> recover Value value) in
  let value_ok = check sz txns value durable in
  let v = restart_of value phase.Bench.ns stats in
  Gc.full_major ();
  let a_txns = stream sz txns Adaptive in
  let adaptive = build Adaptive sz a_txns in
  let (a_durable, a_stats), a_ns = Bench.time_ns (fun () -> recover Adaptive adaptive) in
  let adaptive_ok = check sz a_txns adaptive a_durable in
  ( {
      Bench.setup_ns;
      op_ns = [| float_of_int phase.Bench.ns |];
      sim_s = [| stats.R.Kv_store.recovery_time |];
      attempted = 2;
      failed = List.length (List.filter not [ value_ok; adaptive_ok ]);
      phase;
    },
    v,
    restart_of adaptive a_ns a_stats )

(* One recovery on the simulated single-worker scheduler: the serial
   cost per replayed operation. *)
let serial kind sz txns =
  let txns = stream sz txns kind in
  let img = build kind sz txns in
  let durable = R.Wal.durable_records img.wal ~at:img.crash_at in
  let stats, ns = Bench.time_ns (fun () -> R.Kv_store.recover img.kv ~workers:1 ~log:durable) in
  (check sz txns img durable, ns, stats)

(* A round statistic reduced over rounds as [Bench.end_to_end] does. *)
let lower_of f xs = Bench.Stats.percentile (Array.of_list (List.map f xs)) Bench.low_q

let run (cfg : Bench.cfg) =
  let sz = size cfg in
  let txns = inputs cfg sz in
  if not cfg.traced then begin
    let results = Bench.rounds cfg ~n:10 (fun () -> round sz txns) in
    let rs = List.map (fun (r, _, _) -> r) results in
    let _, v, a = List.hd results in
    let us f (_, v, a) = float_of_int (f (v, a)).ns /. 1e3 in
    let value_us = us fst and adaptive_us = us snd in
    let exact_of name txns r =
      [
        ("log_bytes_per_txn." ^ name, float_of_int r.log_bytes /. float_of_int txns);
        ("command_txns." ^ name, float_of_int r.command_txns);
        ("redo_applied." ^ name, float_of_int r.stats.R.Kv_store.redo_applied);
        ("undo_applied." ^ name, float_of_int r.stats.R.Kv_store.undo_applied);
        ("barriers." ^ name, float_of_int r.stats.R.Kv_store.barriers);
        ("sim_recover_s." ^ name, r.stats.R.Kv_store.recovery_time);
      ]
    in
    Bench.untraced_outcome ~tail_q rs
      ~exact_extra:(exact_of "value" sz.txns v @ exact_of "adaptive" sz.adaptive_txns a)
      ~extra:
        [
          ("recover_value_us", Bench.num (lower_of value_us results));
          ("recover_adaptive_us", Bench.num (lower_of adaptive_us results));
          ("round_adaptive_us", Json.Arr (List.map (fun x -> Bench.num (adaptive_us x)) results));
          ("used_domains", Json.Bool v.stats.R.Kv_store.used_domains);
        ]
  end
  else begin
    let tr = Trace.create ~capacity:20_000 in
    let results =
      Bench.rounds cfg ~n:3 (fun () ->
          let r, v, a = round sz txns in
          let traced kind =
            let t = stream sz txns kind in
            let img = build kind sz t in
            let durable, _ = recover ~tr kind img in
            check sz t img durable
          in
          let v_ok = traced Value in
          let a_ok = traced Adaptive in
          let v_ok1, v_ns1, v_st1 = serial Value sz txns in
          let a_ok1, a_ns1, a_st1 = serial Adaptive sz txns in
          let failed = List.length (List.filter not [ v_ok; a_ok; v_ok1; a_ok1 ]) in
          (r, failed, (v, a), ((v_ns1, v_st1), (a_ns1, a_st1))))
    in
    let rs = List.map (fun (r, _, _, _) -> r) results in
    let _, _, (v, a), ((_, v_st1), (_, a_st1)) = List.hd results in
    let lower_ns f = lower_of (fun x -> float_of_int (f x)) results in
    let value_ns = lower_ns (fun (_, _, (v, _), _) -> v.ns) in
    let adaptive_ns = lower_ns (fun (_, _, (_, a), _) -> a.ns) in
    let value_w1_ns = lower_ns (fun (_, _, _, ((n, _), _)) -> n) in
    let adaptive_w1_ns = lower_ns (fun (_, _, _, (_, (n, _))) -> n) in
    let per_op ns (st : R.Kv_store.recover_stats) = ns /. float_of_int (max 1 st.redo_applied) in
    let value_per_op = per_op value_w1_ns v_st1 and command_per_op = per_op adaptive_w1_ns a_st1 in
    let metrics =
      Bench.per_layer tr
        ~values:
          (Bench.trace_overhead tr ~root:"recovery.restart.value" rs
          :: ("replay.barriers", float_of_int a.stats.R.Kv_store.barriers)
          :: ("replay.domain_speedup", adaptive_w1_ns /. adaptive_ns)
          :: Bench.gc_values rs)
    in
    let ms name = Bench.mean_ns_of (Trace.find tr name) /. 1e6 in
    let per_image kind =
      let k = kind_name kind in
      [
        Bench.metric ("wal.durable_records_ms." ^ k) "ms" (ms ("wal.durable_records." ^ k));
        Bench.metric ("kv_store.recover_ms." ^ k) "ms" (ms ("kv_store.recover." ^ k));
      ]
    in
    let named =
      per_image Value @ per_image Adaptive
      @ [
          Bench.metric "kv_store.recover_w1_ms.value" "ms" (value_w1_ns /. 1e6);
          Bench.metric "kv_store.recover_w1_ms.adaptive" "ms" (adaptive_w1_ns /. 1e6);
          Bench.metric "replay.domain_speedup.value" "ratio" (value_w1_ns /. value_ns);
          Bench.metric "replay.value_ns_per_op" "ns" value_per_op;
          Bench.metric "replay.command_ns_per_op" "ns" command_per_op;
          (* The model prices a command apply at 50x a value apply. *)
          Bench.metric "calib.command_over_value.measured" "ratio" (command_per_op /. value_per_op);
          Bench.metric "calib.command_over_value.model" "ratio" (M.command_apply_time /. M.value_apply_time);
          Bench.metric "recovery_model.sim_recover_s.value" "s" v.stats.R.Kv_store.recovery_time;
          Bench.metric "recovery_model.sim_recover_s.adaptive" "s" a.stats.R.Kv_store.recovery_time;
        ]
    in
    let report = Bench.trace_report cfg ~workload:"recovery" tr ~named:(metrics @ named) in
    Bench.traced_outcome rs
      ~traced_attempted:(4 * List.length rs)
      ~traced_failed:(Bench.sum_int (fun (_, f, _, _) -> f) results)
      ~metrics ~report
  end
