(* oltp: Gray-banking transfers through [Txn_db.transact] — the write
   path (lock manager, in-memory apply, WAL group commit), with no
   planner or operator on it. *)

module R = Mmdb_recovery
module S = Mmdb_storage
module X = Mmdb_util.Xorshift
module T = Mmdb.Txn_db

let tail_q = 0.99
let updates_per_txn = 6
let rate = 800.0  (* arrivals per simulated second: 80% of group commit's ~1000 *)

type size = { accounts : int; warm : int; measured : int; ckpt_every : int }

let size cfg =
  Bench.scale cfg
    { accounts = 100_000; warm = 5_000; measured = 50_000; ckpt_every = 25_000 }
    { accounts = 1_000; warm = 50; measured = 500; ckpt_every = 250 }

type inputs = { txns : (int * int) list array; gaps : float array }

let inputs cfg sz =
  let rng = X.create cfg.Bench.seed in
  let cdf = Inputs.zipf_cdf ~n:sz.accounts ~theta:0.8 in
  let n = sz.warm + sz.measured in
  let txns =
    Array.init n (fun _ ->
        Inputs.transfer rng ~k:updates_per_txn (fun () -> Inputs.zipf rng cdf))
  in
  { txns; gaps = Array.init n (fun _ -> X.exponential rng ~mean:(1.0 /. rate)) }

let checkpoint_due sz i = (i + 1) mod sz.ckpt_every = 0

(* What a round leaves behind, for the oracle and the traced run's
   equivalence check. *)
type final = { balances : int array; disk_bytes : int; pages : int }

let golden sz inp =
  let balances = Array.make sz.accounts 0 in
  Inputs.apply_all ~balances inp.txns;
  balances

let check_final ~expected (f : final) =
  f.balances = expected && Array.fold_left ( + ) 0 f.balances = 0

(* The untraced round: the public entry point, one call per transfer. *)
let round sz inp =
  let db, setup_ns = Bench.time_ns (fun () -> T.create ~nrecords:sz.accounts ()) in
  let failed = ref 0 in
  let transact i =
    match T.transact db inp.txns.(i) with
    | o -> Some o
    | exception _ ->
      incr failed;
      None
  in
  let ckpt_ns = ref [] in
  let checkpoint i =
    if checkpoint_due sz i then begin
      let _, ns = Bench.time_ns (fun () -> T.checkpoint db) in
      ckpt_ns := ns :: !ckpt_ns
    end
  in
  for i = 0 to sz.warm - 1 do
    T.advance db inp.gaps.(i);
    ignore (transact i);
    checkpoint i
  done;
  let m = sz.measured in
  let lat = Array.make m 0.0 and outcomes = Array.make m None in
  let (), phase =
    Bench.measured_phase ~state:db (fun () ->
        for j = 0 to m - 1 do
          let i = sz.warm + j in
          T.advance db inp.gaps.(i);
          let t0 = Bench.now_ns () in
          outcomes.(j) <- transact i;
          lat.(j) <- float_of_int (Bench.now_ns () - t0);
          checkpoint i
        done)
  in
  T.flush db;
  let sim_s =
    Array.map
      (function
        | Some (o : T.commit_outcome) -> (
          match T.completion db ~txn:o.T.txn_id with
          | Some c -> c -. o.T.submitted_at
          | None ->
            incr failed;
            nan)
        | None -> nan)
      outcomes
  in
  let final =
    {
      balances = Array.init sz.accounts (T.balance db);
      disk_bytes = T.log_disk_bytes db;
      pages = T.log_pages db;
    }
  in
  if not (check_final ~expected:(golden sz inp) final) then incr failed;
  ( {
      Bench.setup_ns;
      op_ns = lat;
      sim_s = Array.of_list (List.filter Float.is_finite (Array.to_list sim_s));
      attempted = m;
      failed = !failed;
      phase;
    },
    final,
    List.rev !ckpt_ns )

(* Encode-plus-CRC cost on this run's own log records.  Encoding runs
   only when a fault plan is armed, so no end-to-end metric moves with
   it. *)
let encode_ns wal =
  let records = Array.of_list (R.Wal.all_records wal) in
  let n = min (Array.length records) 100_000 in
  let (), ns =
    Bench.time_ns (fun () ->
        for i = 0 to n - 1 do
          ignore (R.Log_record.encode ~compressed:false records.(i))
        done)
  in
  float_of_int ns /. float_of_int (max 1 n)

(* The traced round cannot see inside [Txn_db.transact], so it issues
   the same layer calls itself, in [transact]'s order, against a store
   built as [Txn_db.create] builds it.  Its final state must equal the
   untraced round's. *)
let traced_round tr sz inp =
  let clock = S.Sim_clock.create () in
  let wal = R.Wal.create ~clock R.Wal.Group_commit in
  let locks = R.Lock_manager.create () in
  let stable = R.Stable_memory.create ~capacity_bytes:(1 lsl 20) in
  let kv = R.Kv_store.create ~nrecords:sz.accounts ~records_per_page:20 ~stable () in
  let now () = S.Sim_clock.now clock in
  let next_lsn = ref 0 in
  let fresh_lsn () =
    incr next_lsn;
    !next_lsn
  in
  let open_tickets = ref [] in
  let deps_total = ref 0 in
  let ckpt_pages = ref [] in
  let retire tr ~at =
    open_tickets :=
      List.filter
        (fun tkt ->
          match Trace.span tr "wal.ticket_completion" (fun () -> R.Wal.ticket_completion tkt) with
          | Some c when c <= at ->
            let txn = R.Wal.ticket_txn tkt in
            Trace.span tr "lock_manager.finalize" (fun () -> R.Lock_manager.finalize locks ~txn);
            false
          | Some _ | None -> true)
        !open_tickets
  in
  let transact tr txn updates =
    Trace.op tr "txn_db.transact" (fun () ->
        let deps =
          List.concat_map
            (fun (slot, _) ->
              match
                Trace.span tr "lock_manager.acquire" (fun () ->
                    R.Lock_manager.acquire locks ~txn ~key:slot)
              with
              | Some g -> g.R.Lock_manager.dependencies
              | None -> invalid_arg "oltp: lock wait in a single-client run")
            updates
        in
        if Option.is_some tr then deps_total := !deps_total + List.length deps;
        let begin_lsn = fresh_lsn () in
        let rev_body =
          List.rev_map
            (fun (slot, delta) ->
              let old_value = Trace.span tr "kv_store.get" (fun () -> R.Kv_store.get ~txn kv slot) in
              let new_value = old_value + delta in
              let lsn = fresh_lsn () in
              Trace.span tr "kv_store.apply_update" (fun () ->
                  R.Kv_store.apply_update ~txn kv ~lsn ~slot ~value:new_value);
              R.Log_record.Update { txn; lsn; slot; old_value; new_value })
            updates
        in
        let commit_at = now () in
        let records =
          Trace.span tr "txn_db.records" (fun () ->
              R.Log_record.Begin { txn; lsn = begin_lsn }
              :: List.rev (R.Log_record.Commit { txn; lsn = fresh_lsn () } :: rev_body))
        in
        ignore (Trace.span tr "lock_manager.precommit" (fun () -> R.Lock_manager.precommit locks ~txn));
        let ticket =
          Trace.span tr "wal.commit_txn" (fun () ->
              R.Wal.commit_txn wal ~at:commit_at ~txn ~deps records)
        in
        open_tickets := ticket :: !open_tickets;
        retire tr ~at:commit_at)
  in
  let flush tr =
    let done_at = Trace.span tr "wal.flush" (fun () -> R.Wal.flush wal ~at:(now ())) in
    S.Sim_clock.advance_to clock (Float.max done_at (R.Wal.quiesce_time wal));
    retire tr ~at:(now ())
  in
  let checkpoint tr =
    Trace.op tr "txn_db.checkpoint" (fun () ->
        Trace.span tr "wal.log_control" (fun () ->
            R.Wal.log_control wal ~at:(now ()) [ R.Log_record.Ckpt_begin { lsn = fresh_lsn () } ]);
        flush tr;
        let st = Trace.span tr "kv_store.checkpoint" (fun () -> R.Kv_store.checkpoint kv) in
        if Option.is_some tr then ckpt_pages := st.R.Kv_store.pages_flushed :: !ckpt_pages;
        Trace.span tr "wal.log_control" (fun () ->
            R.Wal.log_control wal ~at:(now ()) [ R.Log_record.Ckpt_end { lsn = fresh_lsn () } ]))
  in
  let failed = ref 0 in
  Array.iteri
    (fun i updates ->
      let tr = if i < sz.warm then None else Some tr in
      S.Sim_clock.advance clock inp.gaps.(i);
      (try transact tr i updates with _ -> incr failed);
      if checkpoint_due sz i then checkpoint tr)
    inp.txns;
  flush None;
  let final =
    {
      balances = R.Kv_store.balances kv;
      disk_bytes = R.Wal.disk_bytes_written wal;
      pages = R.Wal.pages_written wal;
    }
  in
  ( final,
    !failed,
    float_of_int !deps_total /. float_of_int sz.measured,
    Bench.Stats.mean (Array.of_list (List.map float_of_int !ckpt_pages)),
    encode_ns wal )

let run (cfg : Bench.cfg) =
  let sz = size cfg in
  let inp = inputs cfg sz in
  let txns = sz.warm + sz.measured in
  if not cfg.traced then begin
    let results = Bench.rounds cfg ~n:20 (fun () -> round sz inp) in
    let rs = List.map (fun (r, _, _) -> r) results in
    let r0, f0, ckpts = List.hd results in
    Bench.untraced_outcome ~tail_q rs
      ~exact_extra:
        [
          ("log_bytes_per_txn", float_of_int f0.disk_bytes /. float_of_int txns);
          ("log_pages", float_of_int f0.pages);
        ]
      ~extra:
        [
          ("op_p999_us", Bench.num (Bench.Stats.percentile r0.op_ns 0.999 /. 1e3));
          ( "checkpoint_ms",
            Bench.num
              (Bench.Stats.mean (Array.of_list (List.map (fun ns -> float_of_int ns /. 1e6) ckpts)))
          );
        ]
  end
  else begin
    let tr = Trace.create ~capacity:20_000 in
    let results =
      Bench.rounds cfg ~n:8 (fun () ->
          let r, f, _ = round sz inp in
          let tf, tfailed, deps, ckpt_pages, enc = traced_round tr sz inp in
          (r, tfailed + (if tf = f then 0 else 1), deps, ckpt_pages, enc, tf.pages))
    in
    let rs = List.map (fun (r, _, _, _, _, _) -> r) results in
    let _, _, deps, ckpt_pages, enc, pages = List.hd results in
    let mean_ns name = Bench.mean_ns_of (Trace.find tr name) in
    (* Txn_db's own time: the transact span minus its children — the
       walk over open tickets, the ticket table, list building — plus
       the span bookkeeping for those children.  (The untraced mean
       minus the traced children reads below zero: the children carry
       the tracing overhead.) *)
    let txn_db_self =
      match Trace.find tr "txn_db.transact" with
      | Some s -> float_of_int s.self /. float_of_int (max 1 s.calls)
      | None -> nan
    in
    let metrics =
      Bench.per_layer tr
        ~values:
          (Bench.trace_overhead tr ~root:"txn_db.transact" rs
          :: ("lock_manager.deps_per_txn", deps)
          :: ("wal.txns_per_page", float_of_int txns /. float_of_int (max 1 pages))
          :: ("kv_store.checkpoint_pages", ckpt_pages)
          :: Bench.gc_values rs)
    in
    let named =
      [
        Bench.metric "lock_manager.acquire_ns" "ns" (mean_ns "lock_manager.acquire");
        Bench.metric "lock_manager.precommit_ns" "ns" (mean_ns "lock_manager.precommit");
        Bench.metric "lock_manager.finalize_ns" "ns" (mean_ns "lock_manager.finalize");
        Bench.metric "kv_store.get_ns" "ns" (mean_ns "kv_store.get");
        Bench.metric "kv_store.apply_update_ns" "ns" (mean_ns "kv_store.apply_update");
        Bench.metric "kv_store.checkpoint_ms" "ms" (mean_ns "kv_store.checkpoint" /. 1e6);
        Bench.metric "wal.commit_txn_ns" "ns" (mean_ns "wal.commit_txn");
        Bench.metric "wal.pages_per_ktxn" "count" (1000.0 *. float_of_int pages /. float_of_int txns);
        Bench.metric "log_record.encode_crc_ns" "ns" enc;
        Bench.metric "txn_db.self_ns" "ns" txn_db_self;
      ]
    in
    let report = Bench.trace_report cfg ~workload:"oltp" tr ~named:(metrics @ named) in
    Bench.traced_outcome rs
      ~traced_attempted:(sz.measured * List.length rs)
      ~traced_failed:(Bench.sum_int (fun (_, f, _, _, _, _) -> f) results)
      ~metrics ~report
  end
