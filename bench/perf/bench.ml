(* What every workload shares: the run configuration, the round loop,
   and the reduction of per-round samples to the end-to-end metrics. *)

module Stats = Mmdb_util.Stats

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

type cfg = {
  seed : int;
  smoke : bool;  (* ~1% sizes, one round, no warm-up round *)
  traced : bool;
  out_dir : string option;  (* where a traced run writes its files *)
}

type outcome = {
  attempted : int;
  failed : int;
  metrics : metric list;  (* end-to-end, or per-layer when traced *)
  detail : (string * Json.t) list;  (* everything else worth keeping *)
}

(* [scale cfg full small] picks the full-size or the smoke-size value. *)
let scale cfg full small = if cfg.smoke then small else full

let now_ns = Trace.now_ns

let time_ns f =
  let t0 = now_ns () in
  let v = f () in
  (v, now_ns () - t0)

let live_words () = (Gc.stat ()).Gc.live_words

(* Words live when the current round began: what earlier rounds and the
   inputs hold, which [measured_phase] leaves out of the round's own. *)
let round_base = ref 0

(* One round builds its state from scratch and measures a fixed list of
   operations; a run is [n] rounds (one in smoke mode), so every run of
   every commit does identical work.  A first round runs untimed: it
   grows the heap and warms the caches, which would otherwise make round
   0 the slowest by far.  A full major collection between rounds frees
   one round's state before the next is built. *)
let rounds cfg ~n f =
  let n = if cfg.smoke then 1 else n in
  if not cfg.smoke then ignore (f ());
  let rec go i acc =
    if i = n then List.rev acc
    else begin
      Gc.full_major ();
      round_base := live_words ();
      let r = f () in
      go (i + 1) (r :: acc)
    end
  in
  go 0 []

type phase = {
  ns : int;  (* wall time of the whole measured phase *)
  minor_words : float;  (* allocated during it *)
  major_collections : int;
  live_words : int;  (* heap the round still holds once it is over *)
}

type round = {
  setup_ns : int;
  op_ns : float array;  (* wall time of each measured operation *)
  sim_s : float array;  (* simulated seconds of each measured operation *)
  attempted : int;
  failed : int;
  phase : phase;
}

(* Time the measured phase of a round and count its allocation; then,
   after a full collection, the words the round holds beyond those live
   when it began.  [state] — what the round built — is kept reachable
   until that count. *)
let measured_phase ~state f =
  let w0 = Gc.minor_words () and c0 = (Gc.quick_stat ()).Gc.major_collections in
  let v, ns = time_ns f in
  let minor_words = Gc.minor_words () -. w0 in
  let major_collections = (Gc.quick_stat ()).Gc.major_collections - c0 in
  Gc.full_major ();
  let live_words = live_words () - !round_base in
  ignore (Sys.opaque_identity state);
  (v, { ns; minor_words; major_collections; live_words })

let concat_map_rounds f rs = Array.concat (List.map f rs)
let floats f rs = Array.of_list (List.map f rs)

let sum_int f rs = List.fold_left (fun a r -> a + f r) 0 rs

let round_ops_per_s r = float_of_int (Array.length r.op_ns) /. (float_of_int r.phase.ns /. 1e9)

(* How a per-round time or size is reduced over rounds: its 10th
   percentile (the 90th, for a rate).  On a shared machine interference
   only ever slows a round, and a stretch of it can cover most of a run;
   the fast end of the rounds then moves far less than the median. *)
let low_q = 0.1

(* The end-to-end metrics, named as BENCHMARK.json declares them, each a
   statistic of one round reduced over rounds.  The tail is the
   workload's own percentile [tail_q]. *)
let end_to_end ~tail_q (rs : round list) =
  let lower f = Stats.percentile (floats f rs) low_q in
  [
    metric "setup_s" "s" (lower (fun r -> float_of_int r.setup_ns) /. 1e9);
    metric "ops_per_s" "1/s" (Stats.percentile (floats round_ops_per_s rs) (1.0 -. low_q));
    metric "op_p50_us" "us" (lower (fun r -> Stats.percentile r.op_ns 0.5) /. 1e3);
    metric "op_tail_us" "us" (lower (fun r -> Stats.percentile r.op_ns tail_q) /. 1e3);
    metric "heap_live_mb" "MB"
      (lower (fun r -> float_of_int (r.phase.live_words * (Sys.word_size / 8))) /. 1048576.0);
  ]

(* Values a change must reproduce exactly: simulated time is charged by
   the cost model, not measured.  They stay out of BENCHMARK.json (point
   SELECTs charge nothing, so they can read 0) and are checked by the
   smoke gate and by [compare]. *)
let exact ~tail_q (rs : round list) extra =
  let sim = concat_map_rounds (fun r -> r.sim_s) rs in
  let attempted = sum_int (fun r -> r.attempted) rs in
  ("sim_op_p50_ms", Stats.percentile sim 0.5 *. 1e3)
  :: ("sim_op_tail_ms", Stats.percentile sim tail_q *. 1e3)
  :: ("failed_ratio", float_of_int (sum_int (fun r -> r.failed) rs) /. float_of_int (max 1 attempted))
  :: extra

(* Runtime counters of the untraced rounds, per measured operation. *)
let gc_values (rs : round list) =
  let ops = sum_int (fun r -> Array.length r.op_ns) rs in
  [
    ( "gc.minor_words_per_op",
      List.fold_left (fun a r -> a +. r.phase.minor_words) 0.0 rs /. float_of_int (max 1 ops) );
    ( "gc.major_collections",
      float_of_int (sum_int (fun r -> r.phase.major_collections) rs)
      /. float_of_int (max 1 (List.length rs)) );
  ]

(* Per-layer share of the traced time: each layer's self time over the
   total time of the root spans.  A layer the workload never calls
   reads 0. *)
let shared_layers =
  [
    "txn_db"; "lock_manager"; "kv_store"; "wal"; "db"; "sql"; "plan_check";
    "optimizer"; "executor"; "relation"; "catalog";
  ]

let prefix name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

let layer_shares tr =
  let sums = Trace.summaries tr in
  let root_total =
    List.fold_left
      (fun a (s : Trace.layer_summary) -> if s.root then a + s.total else a)
      0 sums
  in
  List.map
    (fun layer ->
      let self =
        List.fold_left
          (fun a (s : Trace.layer_summary) ->
            if prefix s.name = layer then a + s.self else a)
          0 sums
      in
      metric (layer ^ ".share") "fraction"
        (float_of_int self /. float_of_int (max 1 root_total)))
    shared_layers

let layer_json (s : Trace.layer_summary) =
  Json.Obj
    [
      ("count", Json.Num (float_of_int s.calls));
      ("total_ns", Json.Num (float_of_int s.total));
      ("self_ns", Json.Num (float_of_int s.self));
      ("mean_ns", Json.Num s.mean);
      ("p50_ns", Json.Num s.p50);
    ]

let metrics_json ms =
  Json.Obj
    (List.map
       (fun m -> (m.name, Json.Obj [ ("value", Json.Num m.value); ("unit", Json.Str m.unit_) ]))
       ms)

(* The traced run's report: per-span statistics plus the workload's
   named layer metrics.  With an output directory it is also written
   there as [layers-<w>.json], beside [trace-<w>.jsonl], the buffered
   spans. *)
let trace_report cfg ~workload tr ~named =
  let doc =
    Json.Obj
      [
        ("workload", Json.Str workload);
        ("seed", Json.Num (float_of_int cfg.seed));
        ("spans_dropped_from_jsonl", Json.Num (float_of_int (Trace.dropped tr)));
        ( "layers",
          Json.Obj (List.map (fun (s : Trace.layer_summary) -> (s.name, layer_json s)) (Trace.summaries tr)) );
        ("metrics", metrics_json named);
      ]
  in
  Option.iter
    (fun dir ->
      (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
      Trace.write_jsonl tr (Filename.concat dir ("trace-" ^ workload ^ ".jsonl"));
      let oc = open_out (Filename.concat dir ("layers-" ^ workload ^ ".json")) in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () ->
          output_string oc (Json.to_string doc);
          output_char oc '\n'))
    cfg.out_dir;
  doc

let mean_ns_of (s : Trace.layer_summary option) =
  match s with Some s -> s.mean | None -> 0.0

(* Mean of the traced root operation over the untraced mean latency. *)
let trace_overhead tr ~root (rs : round list) =
  let untraced = Stats.mean (concat_map_rounds (fun r -> r.op_ns) rs) in
  ("trace_overhead", mean_ns_of (Trace.find tr root) /. untraced)

(* The per-layer metrics BENCHMARK.json declares, after the shares.
   Every workload reports all of them; a counter of a layer the
   workload never reaches reads 0. *)
let layer_counters =
  [
    ("lock_manager.deps_per_txn", "count");
    ("wal.txns_per_page", "count");
    ("kv_store.checkpoint_pages", "count");
    ("executor.rows_examined_per_row", "count");
    ("exec.join.hashes", "count");
    ("exec.join.comps", "count");
    ("exec.join.moves", "count");
    ("exec.join.seq_ios", "count");
    ("exec.join.rand_ios", "count");
    ("exec.aggregate.hashes", "count");
    ("exec.filter.comps", "count");
    ("replay.barriers", "count");
    ("replay.domain_speedup", "ratio");
    ("gc.minor_words_per_op", "words");
    ("gc.major_collections", "count");
    ("trace_overhead", "ratio");
  ]

let per_layer tr ~values =
  layer_shares tr
  @ List.map
      (fun (name, unit_) ->
        metric name unit_ (Option.value ~default:0.0 (List.assoc_opt name values)))
      layer_counters

let num x = Json.Num x
let count n = Json.Num (float_of_int n)

let untraced_outcome ~tail_q (rs : round list) ~exact_extra ~extra =
  {
    attempted = sum_int (fun r -> r.attempted) rs;
    failed = sum_int (fun r -> r.failed) rs;
    metrics = end_to_end ~tail_q rs;
    detail =
      ("rounds", count (List.length rs))
      :: ("samples", count (Array.length (concat_map_rounds (fun r -> r.op_ns) rs)))
      :: ("tail_percentile", num (tail_q *. 100.0))
      :: ("round_ops_per_s", Json.Arr (List.map (fun r -> num (round_ops_per_s r)) rs))
      :: ("round_p50_us", Json.Arr (List.map (fun r -> num (Stats.percentile r.op_ns 0.5 /. 1e3)) rs))
      :: ("round_tail_us", Json.Arr (List.map (fun r -> num (Stats.percentile r.op_ns tail_q /. 1e3)) rs))
      :: ("round_setup_s", Json.Arr (List.map (fun r -> num (float_of_int r.setup_ns /. 1e9)) rs))
      :: ("exact", Json.Obj (List.map (fun (k, v) -> (k, num v)) (exact ~tail_q rs exact_extra)))
      :: extra;
  }

(* A traced run also runs untraced rounds (for [trace_overhead] and the
   self-time residuals); both kinds count as attempted operations. *)
let traced_outcome (rs : round list) ~traced_attempted ~traced_failed ~metrics ~report =
  {
    attempted = traced_attempted + sum_int (fun r -> r.attempted) rs;
    failed = traced_failed + sum_int (fun r -> r.failed) rs;
    metrics;
    detail = [ ("rounds", count (List.length rs)); ("report", report) ];
  }
