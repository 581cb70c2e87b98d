(* Tests for Mmdb_recovery: log records/devices, stable memory, the
   three-set lock manager, WAL commit strategies, the memory-resident
   store with checkpoint/crash/recover, the banking workload, the
   throughput simulation (paper's 100 -> 1000 tps ladder), and end-to-end
   crash consistency. *)

module R = Mmdb_recovery
module S = Mmdb_storage
module U = Mmdb_util

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let feq ?(eps = 1e-9) name a b =
  checkb
    (Printf.sprintf "%s: %.6g ~= %.6g" name a b)
    true
    (Float.abs (a -. b) <= eps)

let within name pct a b =
  checkb
    (Printf.sprintf "%s: %.4g within %.0f%% of %.4g" name a (pct *. 100.) b)
    true
    (Float.abs (a -. b) <= pct *. Float.abs b)

(* ------------------------------------------------------------------ *)
(* Log records                                                         *)
(* ------------------------------------------------------------------ *)

let banking_records ?(txn = 1) ?(lsn0 = 1) () =
  R.Log_record.Begin { txn; lsn = lsn0 }
  :: List.init 6 (fun i ->
         R.Log_record.Update
           {
             txn;
             lsn = lsn0 + 1 + i;
             slot = i;
             old_value = 0;
             new_value = i;
           })
  @ [ R.Log_record.Commit { txn; lsn = lsn0 + 7 } ]

let txn_bytes ~compressed records =
  List.fold_left
    (fun acc r -> acc + R.Log_record.size_bytes ~compressed r)
    0 records

let test_record_sizes () =
  let records = banking_records () in
  checki "typical txn = 400 bytes" 400 (txn_bytes ~compressed:false records);
  checki "compressed = 220 bytes" 220 (txn_bytes ~compressed:true records);
  checki "lsn accessor" 1 (R.Log_record.lsn (List.hd records));
  Alcotest.(check (option int))
    "txn accessor" (Some 1)
    (R.Log_record.txn (List.hd records));
  Alcotest.(check (option int))
    "markers have no txn" None
    (R.Log_record.txn (R.Log_record.Ckpt_begin { lsn = 9 }))

(* ------------------------------------------------------------------ *)
(* Log device                                                          *)
(* ------------------------------------------------------------------ *)

let test_log_device_queuing () =
  let clock = S.Sim_clock.create () in
  let d = R.Log_device.create ~clock () in
  let c1 = R.Log_device.write_page d ~at:0.0 [] ~bytes:4096 in
  feq "first completes at 10ms" 10e-3 c1;
  let c2 = R.Log_device.write_page d ~at:0.0 [] ~bytes:4096 in
  feq "second queues" 20e-3 c2;
  let c3 = R.Log_device.write_page d ~at:0.5 [] ~bytes:100 in
  feq "idle gap honoured" 0.51 c3;
  feq "busy_until" 0.51 (R.Log_device.busy_until d);
  checki "pages" 3 (R.Log_device.pages_written d);
  checki "bytes" (4096 + 4096 + 100) (R.Log_device.bytes_written d)

let test_log_device_durability_cutoff () =
  let clock = S.Sim_clock.create () in
  let d = R.Log_device.create ~clock () in
  let r1 = R.Log_record.Begin { txn = 1; lsn = 1 } in
  let r2 = R.Log_record.Begin { txn = 2; lsn = 2 } in
  ignore (R.Log_device.write_page d ~at:0.0 [ r1 ] ~bytes:20);
  ignore (R.Log_device.write_page d ~at:0.0 [ r2 ] ~bytes:20);
  let durable at =
    List.concat_map snd (R.Log_device.durable_pages d ~at) |> List.length
  in
  checki "nothing durable at 5ms" 0 (durable 5e-3);
  checki "one durable at 15ms" 1 (durable 15e-3);
  checki "both durable at 25ms" 2 (durable 25e-3)

let test_log_device_oversize_rejected () =
  let clock = S.Sim_clock.create () in
  let d = R.Log_device.create ~page_bytes:100 ~clock () in
  checkb "oversize raises" true
    (try
       ignore (R.Log_device.write_page d ~at:0.0 [] ~bytes:101);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Stable memory                                                       *)
(* ------------------------------------------------------------------ *)

let test_stable_memory_capacity () =
  let sm = R.Stable_memory.create ~capacity_bytes:100 in
  checki "capacity" 100 (R.Stable_memory.capacity sm);
  checkb "fits" true (R.Stable_memory.put_records sm [] ~bytes:60);
  checki "available" 40 (R.Stable_memory.available sm);
  checkb "overflow rejected" false (R.Stable_memory.put_records sm [] ~bytes:50);
  checkb "exact fit" true (R.Stable_memory.put_records sm [] ~bytes:40);
  checki "full" 0 (R.Stable_memory.available sm)

(* The drainer takes whole batches oldest first, as Wal's stable drain
   does with peek_batch and drop_batch. *)
let test_stable_memory_fifo_drain () =
  let sm = R.Stable_memory.create ~capacity_bytes:1000 in
  let r i = R.Log_record.Begin { txn = i; lsn = i } in
  ignore (R.Stable_memory.put_records sm [ r 1; r 2 ] ~bytes:40);
  ignore (R.Stable_memory.put_records sm [ r 3 ] ~bytes:20);
  ignore (R.Stable_memory.put_records sm [ r 4 ] ~bytes:20);
  let take_batch () =
    match R.Stable_memory.peek_batch sm with
    | Some (records, _) ->
      R.Stable_memory.drop_batch sm;
      records
    | None -> Alcotest.fail "stable memory empty"
  in
  let first = take_batch () in
  let second = take_batch () in
  Alcotest.(check (list int))
    "oldest first, in order" [ 1; 2; 3 ]
    (List.map R.Log_record.lsn (first @ second));
  checki "remaining" 980 (R.Stable_memory.available sm);
  Alcotest.(check (list int))
    "contents" [ 4 ]
    (List.map R.Log_record.lsn (R.Stable_memory.records sm))

let test_stable_memory_peek_drop () =
  let sm = R.Stable_memory.create ~capacity_bytes:1000 in
  let r i = R.Log_record.Begin { txn = i; lsn = i } in
  ignore (R.Stable_memory.put_records sm [ r 1 ] ~bytes:20);
  ignore (R.Stable_memory.put_records sm [ r 2 ] ~bytes:30);
  (match R.Stable_memory.peek_batch sm with
  | Some ([ x ], 20) -> checki "peek oldest" 1 (R.Log_record.lsn x)
  | _ -> Alcotest.fail "unexpected peek");
  R.Stable_memory.drop_batch sm;
  checki "available after drop" 970 (R.Stable_memory.available sm);
  R.Stable_memory.drop_batch sm;
  checkb "drop empty raises FAULT010" true
    (try
       R.Stable_memory.drop_batch sm;
       false
     with Mmdb_fault.Fault.Io_error e ->
       e.Mmdb_fault.Fault.code = "FAULT010")

let test_stable_memory_table () =
  let sm = R.Stable_memory.create ~capacity_bytes:10 in
  R.Stable_memory.table_put sm ~key:3 ~value:77;
  R.Stable_memory.table_put sm ~key:5 ~value:99;
  checkb "get" true (R.Stable_memory.table_get sm ~key:3 = Some 77);
  checkb "missing" true (R.Stable_memory.table_get sm ~key:4 = None);
  let sum =
    R.Stable_memory.table_fold sm ~init:0 ~f:(fun acc ~key:_ ~value ->
        acc + value)
  in
  checki "fold" 176 sum;
  R.Stable_memory.table_remove sm ~key:3;
  checkb "removed" true (R.Stable_memory.table_get sm ~key:3 = None);
  R.Stable_memory.table_clear sm;
  checkb "cleared" true (R.Stable_memory.table_get sm ~key:5 = None)

(* ------------------------------------------------------------------ *)
(* Lock manager                                                        *)
(* ------------------------------------------------------------------ *)

let test_lock_basic_grant () =
  let lm = R.Lock_manager.create () in
  (match R.Lock_manager.acquire lm ~txn:1 ~key:10 with
  | Some g ->
    checki "granted to 1" 1 g.R.Lock_manager.granted_txn;
    Alcotest.(check (list int)) "no deps" [] g.R.Lock_manager.dependencies
  | None -> Alcotest.fail "should grant");
  checkb "holder" true (R.Lock_manager.holder lm ~key:10 = Some 1);
  (* Second transaction must wait. *)
  checkb "2 waits" true (R.Lock_manager.acquire lm ~txn:2 ~key:10 = None);
  Alcotest.(check (list int)) "wait queue" [ 2 ]
    (R.Lock_manager.waiters lm ~key:10)

let test_lock_precommit_dependency () =
  let lm = R.Lock_manager.create () in
  ignore (R.Lock_manager.acquire lm ~txn:1 ~key:10);
  let grants = R.Lock_manager.precommit lm ~txn:1 in
  Alcotest.(check (list int)) "no waiters woken" []
    (List.map (fun g -> g.R.Lock_manager.granted_txn) grants);
  Alcotest.(check (list int)) "1 precommitted" [ 1 ]
    (R.Lock_manager.precommitted lm ~key:10);
  (* New acquirer becomes dependent on 1 ("reading uncommitted data"). *)
  (match R.Lock_manager.acquire lm ~txn:2 ~key:10 with
  | Some g ->
    Alcotest.(check (list int)) "depends on 1" [ 1 ]
      g.R.Lock_manager.dependencies
  | None -> Alcotest.fail "should grant");
  (* Chain: 2 precommits, 3 depends on both. *)
  ignore (R.Lock_manager.precommit lm ~txn:2);
  (match R.Lock_manager.acquire lm ~txn:3 ~key:10 with
  | Some g ->
    Alcotest.(check (list int))
      "depends on 2 then 1" [ 2; 1 ]
      g.R.Lock_manager.dependencies
  | None -> Alcotest.fail "should grant");
  (* Finalize 1: it leaves the precommitted set. *)
  R.Lock_manager.finalize lm ~txn:1;
  ignore (R.Lock_manager.precommit lm ~txn:3);
  Alcotest.(check (list int)) "2,3 precommitted" [ 2; 3 ]
    (List.sort compare (R.Lock_manager.precommitted lm ~key:10))

let test_lock_waiter_woken_on_precommit () =
  let lm = R.Lock_manager.create () in
  ignore (R.Lock_manager.acquire lm ~txn:1 ~key:5);
  checkb "2 waits" true (R.Lock_manager.acquire lm ~txn:2 ~key:5 = None);
  let grants = R.Lock_manager.precommit lm ~txn:1 in
  (match grants with
  | [ g ] ->
    checki "2 woken" 2 g.R.Lock_manager.granted_txn;
    Alcotest.(check (list int)) "dependent on 1" [ 1 ]
      g.R.Lock_manager.dependencies
  | _ -> Alcotest.fail "expected one grant");
  checkb "2 now holds" true (R.Lock_manager.holder lm ~key:5 = Some 2)

let test_lock_abort_releases () =
  let lm = R.Lock_manager.create () in
  ignore (R.Lock_manager.acquire lm ~txn:1 ~key:5);
  checkb "2 waits" true (R.Lock_manager.acquire lm ~txn:2 ~key:5 = None);
  let grants = R.Lock_manager.release_abort lm ~txn:1 in
  (match grants with
  | [ g ] ->
    checki "2 woken" 2 g.R.Lock_manager.granted_txn;
    Alcotest.(check (list int)) "no deps from aborter" []
      g.R.Lock_manager.dependencies
  | _ -> Alcotest.fail "expected one grant");
  (* Pre-committed transactions never abort. *)
  ignore (R.Lock_manager.precommit lm ~txn:2);
  checkb "abort after precommit rejected" true
    (try
       ignore (R.Lock_manager.release_abort lm ~txn:2);
       false
     with Invalid_argument _ -> true)

let test_lock_reacquire_held () =
  let lm = R.Lock_manager.create () in
  ignore (R.Lock_manager.acquire lm ~txn:1 ~key:5);
  (match R.Lock_manager.acquire lm ~txn:1 ~key:5 with
  | Some g -> Alcotest.(check (list int)) "no deps" [] g.R.Lock_manager.dependencies
  | None -> Alcotest.fail "re-acquire should grant");
  Alcotest.(check (list int)) "held once" [ 5 ]
    (R.Lock_manager.locks_held lm ~txn:1)

let raises_invalid f =
  try
    f ();
    false
  with Invalid_argument _ -> true

(* Pre-commit releases every lock for good (§5.2): the lock set never
   grows again, and a finished transaction id is dead. *)
let test_lock_acquire_after_precommit_raises () =
  let lm = R.Lock_manager.create () in
  ignore (R.Lock_manager.acquire lm ~txn:1 ~key:5);
  ignore (R.Lock_manager.precommit lm ~txn:1);
  checkb "acquire after precommit rejected" true
    (raises_invalid (fun () -> ignore (R.Lock_manager.acquire lm ~txn:1 ~key:6)));
  R.Lock_manager.finalize lm ~txn:1;
  checkb "acquire after finalize rejected" true
    (raises_invalid (fun () -> ignore (R.Lock_manager.acquire lm ~txn:1 ~key:7)))

let test_lock_acquire_after_abort_raises () =
  let lm = R.Lock_manager.create () in
  ignore (R.Lock_manager.acquire lm ~txn:1 ~key:5);
  ignore (R.Lock_manager.release_abort lm ~txn:1);
  checkb "acquire after abort rejected" true
    (raises_invalid (fun () -> ignore (R.Lock_manager.acquire lm ~txn:1 ~key:5)))

(* Property: every grant handed out when locks change hands (initial
   acquire, precommit wake, abort wake) lists dependencies that are a
   subset of the key's pre-committed set at grant time. *)
let test_lock_wake_dependency_property () =
  let rng = U.Xorshift.create 4242 in
  let lm = R.Lock_manager.create () in
  let nkeys = 6 in
  (* waiting txn -> key it queued on *)
  let waiting : (int, int) Hashtbl.t = Hashtbl.create 8 in
  let subset ds key =
    let pc = R.Lock_manager.precommitted lm ~key in
    List.for_all (fun d -> List.mem d pc) ds
  in
  let check_grants grants =
    List.iter
      (fun (g : R.Lock_manager.grant) ->
        let w = g.R.Lock_manager.granted_txn in
        match Hashtbl.find_opt waiting w with
        | Some key ->
          Hashtbl.remove waiting w;
          checkb
            (Printf.sprintf "woken txn %d deps in precommitted(%d)" w key)
            true
            (subset g.R.Lock_manager.dependencies key)
        | None -> Alcotest.fail "grant to a transaction that was not waiting")
      grants
  in
  let live = ref [] in
  let next = ref 0 in
  for _ = 1 to 400 do
    (* Keep a few transactions in flight. *)
    if List.length !live < 4 then begin
      live := !next :: !live;
      incr next
    end;
    let l = !live in
    let txn = List.nth l (U.Xorshift.int rng (List.length l)) in
    if Hashtbl.mem waiting txn then ()
    else if
      U.Xorshift.int rng 4 = 0 && R.Lock_manager.locks_held lm ~txn <> []
    then begin
      (* Finish: mostly precommit (then finalize), sometimes abort. *)
      (* Check at grant time: finalize would already have removed the
         pre-committed transaction from the sets. *)
      if U.Xorshift.int rng 5 = 0 then
        check_grants (R.Lock_manager.release_abort lm ~txn)
      else begin
        check_grants (R.Lock_manager.precommit lm ~txn);
        R.Lock_manager.finalize lm ~txn
      end;
      live := List.filter (fun t -> t <> txn) !live
    end
    else begin
      let key = U.Xorshift.int rng nkeys in
      match R.Lock_manager.acquire lm ~txn ~key with
      | Some g ->
        checkb
          (Printf.sprintf "direct grant to %d deps in precommitted(%d)" txn key)
          true
          (subset g.R.Lock_manager.dependencies key)
      | None -> Hashtbl.replace waiting txn key
    end
  done

let test_lock_schedule_recording () =
  let clock = S.Sim_clock.create () in
  let recorder =
    R.Schedule.recorder ~now:(fun () -> S.Sim_clock.now clock)
  in
  let lm = R.Lock_manager.create ~recorder () in
  ignore (R.Lock_manager.acquire lm ~txn:1 ~key:5);
  S.Sim_clock.advance clock 1e-3;
  checkb "2 waits" true (R.Lock_manager.acquire lm ~txn:2 ~key:5 = None);
  ignore (R.Lock_manager.precommit lm ~txn:1);
  checkb "protocol transitions recorded" true
    (match
       List.map
         (fun (e : R.Schedule.event) -> e.R.Schedule.kind)
         (R.Schedule.events recorder)
     with
    | R.Schedule.
        [ Acquire; Grant _; Acquire; Wait _; Precommit; Release; Wake _ ] ->
      true
    | _ -> false);
  (* Times come from the injected clock. *)
  match R.Schedule.events recorder with
  | a :: _ -> feq "first event at t=0" 0.0 a.R.Schedule.time
  | [] -> Alcotest.fail "no events"

(* A committed id and an aborted id stay dead however many transactions
   finish after them, though the manager keeps no entry for either. *)
let test_lock_finished_ids_stay_rejected () =
  let lm = R.Lock_manager.create () in
  ignore (R.Lock_manager.acquire lm ~txn:0 ~key:3);
  ignore (R.Lock_manager.precommit lm ~txn:0);
  R.Lock_manager.finalize lm ~txn:0;
  ignore (R.Lock_manager.acquire lm ~txn:1 ~key:3);
  ignore (R.Lock_manager.release_abort lm ~txn:1);
  for txn = 2 to 100_001 do
    ignore (R.Lock_manager.acquire lm ~txn ~key:(txn mod 64));
    if txn mod 3 = 0 then ignore (R.Lock_manager.release_abort lm ~txn)
    else begin
      ignore (R.Lock_manager.precommit lm ~txn);
      R.Lock_manager.finalize lm ~txn
    end
  done;
  List.iter
    (fun (what, txn) ->
      checkb (what ^ " id: acquire rejected") true
        (raises_invalid (fun () -> ignore (R.Lock_manager.acquire lm ~txn ~key:3)));
      checkb (what ^ " id: precommit rejected") true
        (raises_invalid (fun () -> ignore (R.Lock_manager.precommit lm ~txn)));
      checkb (what ^ " id: release_abort rejected") true
        (raises_invalid (fun () ->
             ignore (R.Lock_manager.release_abort lm ~txn)));
      checkb (what ^ " id: finalize rejected") true
        (raises_invalid (fun () -> R.Lock_manager.finalize lm ~txn)))
    [ ("committed", 0); ("aborted", 1) ];
  checkb "key 3 free" true (R.Lock_manager.holder lm ~key:3 = None);
  Alcotest.(check (list int)) "nothing pre-committed on key 3" []
    (R.Lock_manager.precommitted lm ~key:3)

(* Model-based test: random operation sequences against a pure reference
   of Section 5.2's three sets per lock.  Every result (grant, wait,
   woken grants, expired ids, raise) and every accessor must agree after
   every step. *)
module IM = Map.Make (Int)

type lm_op =
  | Acquire of int * int * float option  (* txn, key, wait budget *)
  | Precommit of int
  | Abort of int
  | Finalize of int
  | Expire of float

let pp_lm_op = function
  | Acquire (t, k, b) ->
    Printf.sprintf "acquire %d %d%s" t k
      (match b with Some b -> Printf.sprintf " ~%g" b | None -> "")
  | Precommit t -> Printf.sprintf "precommit %d" t
  | Abort t -> Printf.sprintf "abort %d" t
  | Finalize t -> Printf.sprintf "finalize %d" t
  | Expire n -> Printf.sprintf "expire %g" n

type m_phase = M_active | M_precommitted | M_finished

type m_txn = {
  phase : m_phase;
  held : int list;  (* newest first, kept past pre-commit *)
  waiting : (int * float option) option;  (* key, expiry *)
}

type model = {
  holder : int IM.t;
  queue : int list IM.t;  (* oldest first *)
  pre : int list IM.t;  (* newest first *)
  txns : m_txn IM.t;
}

let m_empty =
  { holder = IM.empty; queue = IM.empty; pre = IM.empty; txns = IM.empty }

let m_list m k = Option.value ~default:[] (IM.find_opt k m)

let m_txn m t =
  Option.value
    ~default:{ phase = M_active; held = []; waiting = None }
    (IM.find_opt t m.txns)

let m_set m t s = { m with txns = IM.add t s m.txns }

let m_grant m t k =
  let s = m_txn m t in
  { (m_set m t { s with held = k :: s.held; waiting = None }) with
    holder = IM.add k t m.holder }

let m_unqueue m t =
  let s = m_txn m t in
  match s.waiting with
  | None -> m
  | Some (k, _) ->
    m_set
      { m with queue = IM.add k (List.filter (( <> ) t) (m_list m.queue k)) m.queue }
      t { s with waiting = None }

(* Release [keys] in order; each freed key goes to its oldest waiter. *)
let m_release m t ~pre keys =
  let m, grants =
    List.fold_left
      (fun (m, gs) k ->
        let m =
          { m with
            holder = IM.remove k m.holder;
            pre = (if pre then IM.add k (t :: m_list m.pre k) m.pre else m.pre) }
        in
        match m_list m.queue k with
        | [] -> (m, gs)
        | w :: rest ->
          let m = m_grant { m with queue = IM.add k rest m.queue } w k in
          (m, (w, m_list m.pre k) :: gs))
      (m, []) keys
  in
  (m, List.rev grants)

type m_result =
  | R_raise
  | R_acquire of (int * int list) option
  | R_grants of (int * int list) list
  | R_unit
  | R_ids of int list

let m_step m = function
  | Acquire (t, k, budget) -> (
    let s = m_txn m t in
    if s.phase <> M_active || s.waiting <> None || k < 0 then (m, R_raise)
    else
      match IM.find_opt k m.holder with
      | Some h when h = t -> (m, R_acquire (Some (t, [])))
      | Some _ ->
        let expiry =
          Option.map
            (fun budget ->
              Mmdb_overload.Overload.Deadline.(expires (make ~now:0.0 ~budget)))
            budget
        in
        ( { (m_set m t { s with waiting = Some (k, expiry) }) with
            queue = IM.add k (m_list m.queue k @ [ t ]) m.queue },
          R_acquire None )
      | None -> (m_grant m t k, R_acquire (Some (t, m_list m.pre k))))
  | Precommit t ->
    let s = m_txn m t in
    if s.phase <> M_active || s.waiting <> None then (m, R_raise)
    else
      let m, gs =
        m_release (m_set m t { s with phase = M_precommitted }) t ~pre:true
          s.held
      in
      (m, R_grants gs)
  | Abort t ->
    let s = m_txn m t in
    if s.phase <> M_active then (m, R_raise)
    else
      let m, gs = m_release (m_unqueue m t) t ~pre:false s.held in
      (m_set m t { phase = M_finished; held = []; waiting = None }, R_grants gs)
  | Finalize t ->
    let s = m_txn m t in
    if s.phase <> M_precommitted then (m, R_raise)
    else
      let m =
        List.fold_left
          (fun m k ->
            { m with pre = IM.add k (List.filter (( <> ) t) (m_list m.pre k)) m.pre })
          m s.held
      in
      (m_set m t { phase = M_finished; held = []; waiting = None }, R_unit)
  | Expire now ->
    let ids =
      IM.fold
        (fun t s acc ->
          match s.waiting with
          | Some (_, Some d) when now > d -> t :: acc
          | Some _ | None -> acc)
        m.txns []
      |> List.sort compare
    in
    (List.fold_left m_unqueue m ids, R_ids ids)

let lm_step lm op =
  let grant (g : R.Lock_manager.grant) =
    (g.R.Lock_manager.granted_txn, g.R.Lock_manager.dependencies)
  in
  try
    match op with
    | Acquire (txn, key, budget) ->
      let deadline =
        Option.map
          (fun budget -> Mmdb_overload.Overload.Deadline.make ~now:0.0 ~budget)
          budget
      in
      R_acquire (Option.map grant (R.Lock_manager.acquire ?deadline lm ~txn ~key))
    | Precommit txn -> R_grants (List.map grant (R.Lock_manager.precommit lm ~txn))
    | Abort txn -> R_grants (List.map grant (R.Lock_manager.release_abort lm ~txn))
    | Finalize txn ->
      R.Lock_manager.finalize lm ~txn;
      R_unit
    | Expire now -> R_ids (R.Lock_manager.expire_waiters lm ~now)
  with Invalid_argument _ -> R_raise

let lm_txns = 10
let gen_lm_op =
  QCheck.Gen.(
    let txn = int_bound (lm_txns - 1) in
    frequency
      [
        ( 6,
          map3
            (fun t k b -> Acquire (t, k, b))
            txn
            (frequency [ (1, return (-1)); (2, return 40); (20, int_bound 5) ])
            (opt ~ratio:0.3 (map float_of_int (int_range 1 4))) );
        (2, map (fun t -> Precommit t) txn);
        (2, map (fun t -> Abort t) txn);
        (2, map (fun t -> Finalize t) txn);
        (1, map (fun n -> Expire (float_of_int n)) (int_bound 5));
      ])

(* Where the manager and the model disagree after [op], if anywhere. *)
let lm_disagreement lm m op got want =
  let keys = List.init 50 Fun.id @ [ -1; 1000 ] in
  if got <> want then Some (pp_lm_op op ^ ": results differ")
  else
    match
      List.find_opt
        (fun k ->
          R.Lock_manager.holder lm ~key:k <> IM.find_opt k m.holder
          || R.Lock_manager.waiters lm ~key:k <> m_list m.queue k
          || R.Lock_manager.precommitted lm ~key:k <> List.rev (m_list m.pre k))
        keys
    with
    | Some k -> Some (Printf.sprintf "%s: key %d's sets differ" (pp_lm_op op) k)
    | None ->
      List.find_map
        (fun t ->
          let s = m_txn m t in
          let want = if s.phase = M_finished then [] else List.rev s.held in
          if R.Lock_manager.locks_held lm ~txn:t <> want then
            Some (Printf.sprintf "%s: locks_held %d differs" (pp_lm_op op) t)
          else None)
        (List.init lm_txns Fun.id)

let qcheck_lock_manager_model =
  QCheck.Test.make ~name:"lock manager agrees with the three-set model"
    ~count:400
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map pp_lm_op ops))
       QCheck.Gen.(list_size (int_range 1 80) gen_lm_op))
    (fun ops ->
      let lm = R.Lock_manager.create () in
      ignore
        (List.fold_left
           (fun m op ->
             let m, want = m_step m op in
             (match lm_disagreement lm m op (lm_step lm op) want with
             | Some msg -> QCheck.Test.fail_report msg
             | None -> ());
             m)
           m_empty ops);
      true)

(* ------------------------------------------------------------------ *)
(* WAL strategies                                                      *)
(* ------------------------------------------------------------------ *)

let wal_commit wal ~at ~txn ?(deps = []) () =
  R.Wal.commit_txn wal ~at ~txn ~deps
    (banking_records ~txn ~lsn0:(txn * 100) ())

let test_wal_conventional_serializes () =
  let clock = S.Sim_clock.create () in
  let wal = R.Wal.create ~clock R.Wal.Conventional in
  let t1 = wal_commit wal ~at:0.0 ~txn:1 () in
  let t2 = wal_commit wal ~at:0.0 ~txn:2 () in
  let t3 = wal_commit wal ~at:0.0 ~txn:3 () in
  feq "t1 at 10ms" 10e-3 (Option.get (R.Wal.ticket_completion t1));
  feq "t2 at 20ms" 20e-3 (Option.get (R.Wal.ticket_completion t2));
  feq "t3 at 30ms" 30e-3 (Option.get (R.Wal.ticket_completion t3));
  checki "3 pages" 3 (R.Wal.pages_written wal)

let test_wal_group_commit_batches () =
  let clock = S.Sim_clock.create () in
  let wal = R.Wal.create ~clock R.Wal.Group_commit in
  let tickets = List.init 12 (fun i -> wal_commit wal ~at:0.0 ~txn:i ()) in
  (* First ten 400-byte txns share the first page (4000 <= 4096). *)
  let t0 = List.nth tickets 0 and t9 = List.nth tickets 9 in
  (match (R.Wal.ticket_completion t0, R.Wal.ticket_completion t9) with
  | Some a, Some b ->
    feq "first group together" a b;
    feq "one write" 10e-3 a
  | _ -> Alcotest.fail "first group should be durable");
  (* Txn 11 still sits in the open buffer. *)
  let t11 = List.nth tickets 11 in
  checkb "tail not durable yet" true (R.Wal.ticket_completion t11 = None);
  ignore (R.Wal.flush wal ~at:0.0);
  checkb "flush resolves tail" true (R.Wal.ticket_completion t11 <> None)

let test_wal_partitioned_parallelism () =
  let clock = S.Sim_clock.create () in
  let wal = R.Wal.create ~clock (R.Wal.Partitioned { devices = 2 }) in
  (* 20 independent txns span two pages; with 2 devices both write in
     parallel, completing at 10ms. *)
  let tickets = List.init 20 (fun i -> wal_commit wal ~at:0.0 ~txn:i ()) in
  ignore (R.Wal.flush wal ~at:0.0);
  let c i = Option.get (R.Wal.ticket_completion (List.nth tickets i)) in
  feq "page 1 at 10ms" 10e-3 (c 0);
  feq "page 2 also at 10ms (parallel)" 10e-3 (c 19)

let test_wal_partitioned_dependency_ordering () =
  let clock = S.Sim_clock.create () in
  let wal = R.Wal.create ~clock (R.Wal.Partitioned { devices = 4 }) in
  (* Group 1: the anchor and nine independent fillers. *)
  let anchor = wal_commit wal ~at:0.0 ~txn:100 () in
  let free_rider = wal_commit wal ~at:0.0 ~txn:1 () in
  for i = 2 to 9 do
    ignore (wal_commit wal ~at:0.0 ~txn:i ())
  done;
  ignore (R.Wal.flush wal ~at:0.0);
  let anchor_done = Option.get (R.Wal.ticket_completion anchor) in
  feq "anchor group at 10ms" 10e-3 anchor_done;
  ignore free_rider;
  (* Group 2: one transaction dependent on the anchor, plus an
     independent control group 3 for comparison. *)
  let dep = wal_commit wal ~at:0.0 ~txn:200 ~deps:[ 100 ] () in
  ignore (R.Wal.flush wal ~at:0.0);
  let control = wal_commit wal ~at:0.0 ~txn:300 () in
  ignore (R.Wal.flush wal ~at:0.0);
  let dep_done = Option.get (R.Wal.ticket_completion dep) in
  let control_done = Option.get (R.Wal.ticket_completion control) in
  (* The dependent group is issued only after the anchor group is
     durable: 10ms + 10ms.  The independent control group, on an idle
     device, needs only its own 10ms. *)
  feq "dependent serialized" 20e-3 dep_done;
  feq "independent parallel" 10e-3 control_done;
  checkb "topological order" true (dep_done >= anchor_done +. 10e-3 -. 1e-9)

let test_wal_stable_immediate_commit () =
  let clock = S.Sim_clock.create () in
  let wal =
    R.Wal.create ~clock
      (R.Wal.Stable { devices = 1; capacity_bytes = 8192; compressed = true })
  in
  let t1 = wal_commit wal ~at:0.0 ~txn:1 () in
  feq "commits instantly" 0.0 (Option.get (R.Wal.ticket_completion t1));
  (* Crash right now: the records are durable in stable memory. *)
  checki "durable immediately" 8
    (List.length (R.Wal.durable_records wal ~at:0.0))

let test_wal_stable_backpressure () =
  let clock = S.Sim_clock.create () in
  (* Room for exactly 2 x 400-byte transactions. *)
  let wal =
    R.Wal.create ~clock
      (R.Wal.Stable { devices = 1; capacity_bytes = 800; compressed = false })
  in
  let t1 = wal_commit wal ~at:0.0 ~txn:1 () in
  let t2 = wal_commit wal ~at:0.0 ~txn:2 () in
  feq "t1 instant" 0.0 (Option.get (R.Wal.ticket_completion t1));
  feq "t2 instant" 0.0 (Option.get (R.Wal.ticket_completion t2));
  (* Third must wait for a drain page write. *)
  let t3 = wal_commit wal ~at:0.0 ~txn:3 () in
  feq "t3 waits for drain" 10e-3 (Option.get (R.Wal.ticket_completion t3))

let test_wal_stable_compression_on_disk () =
  let clock = S.Sim_clock.create () in
  let mk compressed =
    let wal =
      R.Wal.create ~clock
        (R.Wal.Stable { devices = 1; capacity_bytes = 4000; compressed })
    in
    for i = 1 to 50 do
      ignore (wal_commit wal ~at:0.0 ~txn:i ())
    done;
    ignore (R.Wal.flush wal ~at:0.0);
    R.Wal.disk_bytes_written wal
  in
  let plain = mk false and compressed = mk true in
  within "compressed/plain ~ 0.55" 0.02
    (float_of_int compressed /. float_of_int plain)
    0.55

let test_wal_durable_cutoff_group () =
  let clock = S.Sim_clock.create () in
  let wal = R.Wal.create ~clock R.Wal.Group_commit in
  for i = 1 to 10 do
    ignore (wal_commit wal ~at:0.0 ~txn:i ())
  done;
  (* Ten 400-byte txns (4000 bytes) still fit the 4096-byte buffer: the
     group has not been forced out, so a crash now loses everything. *)
  checki "whole group volatile" 0
    (List.length (R.Wal.durable_records wal ~at:1.0));
  ignore (R.Wal.flush wal ~at:0.0);
  (* Page scheduled at 0, completes at 10ms. *)
  checki "nothing durable at 5ms" 0
    (List.length (R.Wal.durable_records wal ~at:5e-3));
  checki "80 records durable at 10ms" 80
    (List.length (R.Wal.durable_records wal ~at:10e-3));
  checki "oracle sees all" 80 (List.length (R.Wal.all_records wal))

let test_wal_time_order_enforced () =
  let clock = S.Sim_clock.create () in
  let wal = R.Wal.create ~clock R.Wal.Conventional in
  ignore (wal_commit wal ~at:1.0 ~txn:1 ());
  checkb "going back raises" true
    (try
       ignore (wal_commit wal ~at:0.5 ~txn:2 ());
       false
     with Invalid_argument _ -> true)

(* Property: under every strategy, for random dependency chains, a
   dependent transaction is never durable before its dependency. *)
let qcheck_wal_dependency_order =
  QCheck.Test.make ~name:"dependents never durable before dependencies"
    ~count:40
    QCheck.(
      pair (int_range 0 3)
        (list_of_size Gen.(int_range 1 60) (int_range 0 9)))
    (fun (strat_idx, dep_offsets) ->
      let strategy =
        match strat_idx with
        | 0 -> R.Wal.Conventional
        | 1 -> R.Wal.Group_commit
        | 2 -> R.Wal.Partitioned { devices = 3 }
        | _ ->
          R.Wal.Stable { devices = 2; capacity_bytes = 4096; compressed = true }
      in
      let clock = S.Sim_clock.create () in
      let wal = R.Wal.create ~clock strategy in
      (* Txn i depends on txn (i - 1 - offset) when that exists. *)
      let tickets =
        List.mapi
          (fun i offset ->
            let deps = if i - 1 - offset >= 0 then [ i - 1 - offset ] else [] in
            (i, deps, wal_commit wal ~at:(float_of_int i *. 1e-4) ~txn:i ~deps ()))
          dep_offsets
      in
      ignore (R.Wal.flush wal ~at:1.0);
      let completion = Hashtbl.create 64 in
      List.iter
        (fun (i, _, tkt) ->
          match R.Wal.ticket_completion tkt with
          | Some c -> Hashtbl.replace completion i c
          | None -> ())
        tickets;
      List.for_all
        (fun (i, deps, _) ->
          match Hashtbl.find_opt completion i with
          | None -> true (* never durable: vacuously ordered *)
          | Some c ->
            List.for_all
              (fun d ->
                match Hashtbl.find_opt completion d with
                | Some dc -> dc <= c +. 1e-12
                | None -> false (* dependency lost but dependent durable! *))
              deps)
        tickets)

(* ------------------------------------------------------------------ *)
(* Workload                                                            *)
(* ------------------------------------------------------------------ *)

let test_workload_properties () =
  let rng = U.Xorshift.create 3 in
  let txns = R.Workload.generate ~rng ~nrecords:100 ~n:50 () in
  checki "50 txns" 50 (List.length txns);
  List.iter
    (fun (t : R.Workload.txn) ->
      checki "6 updates" 6 (List.length t.R.Workload.updates);
      let sum = List.fold_left (fun a (_, d) -> a + d) 0 t.R.Workload.updates in
      checki "zero-sum" 0 sum;
      let slots = List.map fst t.R.Workload.updates in
      checki "distinct slots" 6
        (List.length (List.sort_uniq compare slots)))
    txns;
  checki "400-byte logs" 400 (R.Workload.log_bytes ~updates_per_txn:6)

let test_workload_apply () =
  let balances = Array.make 10 0 in
  let txn = { R.Workload.txn_id = 0; updates = [ (1, 5); (2, -5) ] } in
  R.Workload.apply ~balances txn;
  checki "credit" 5 balances.(1);
  checki "debit" (-5) balances.(2)

(* ------------------------------------------------------------------ *)
(* Kv_store                                                            *)
(* ------------------------------------------------------------------ *)

let fresh_kv ?(nrecords = 100) ?(records_per_page = 10) () =
  let sm = R.Stable_memory.create ~capacity_bytes:4096 in
  (sm, R.Kv_store.create ~nrecords ~records_per_page ~stable:sm ())

let test_kv_basics () =
  let _, kv = fresh_kv () in
  checki "nrecords" 100 (R.Kv_store.nrecords kv);
  checki "npages" 10 (R.Kv_store.npages kv);
  checki "initial 0" 0 (R.Kv_store.get kv 5);
  R.Kv_store.apply_update kv ~lsn:1 ~slot:5 ~value:42;
  checki "updated" 42 (R.Kv_store.get kv 5);
  checki "one dirty page" 1 (R.Kv_store.dirty_pages kv)

let test_kv_dirty_table_first_lsn () =
  let _, kv = fresh_kv () in
  R.Kv_store.apply_update kv ~lsn:7 ~slot:5 ~value:1;
  R.Kv_store.apply_update kv ~lsn:9 ~slot:6 ~value:2;
  (* slot 6 same page as 5 *)
  R.Kv_store.apply_update kv ~lsn:11 ~slot:50 ~value:3;
  checkb "start = min first-lsn" true (R.Kv_store.recovery_start_lsn kv = Some 7);
  checki "two dirty pages" 2 (R.Kv_store.dirty_pages kv)

let test_kv_checkpoint_clears () =
  let _, kv = fresh_kv () in
  R.Kv_store.apply_update kv ~lsn:1 ~slot:0 ~value:1;
  R.Kv_store.apply_update kv ~lsn:2 ~slot:99 ~value:2;
  let st = R.Kv_store.checkpoint kv in
  checki "2 pages flushed" 2 st.R.Kv_store.pages_flushed;
  feq "20ms" 20e-3 st.R.Kv_store.duration;
  checki "clean" 0 (R.Kv_store.dirty_pages kv);
  checkb "no start lsn" true (R.Kv_store.recovery_start_lsn kv = None)

let test_kv_crash_blocks_reads () =
  let _, kv = fresh_kv () in
  R.Kv_store.crash kv;
  checkb "read after crash raises" true
    (try
       ignore (R.Kv_store.get kv 0);
       false
     with Invalid_argument _ -> true)

let test_kv_recover_redo () =
  let _, kv = fresh_kv () in
  R.Kv_store.apply_update kv ~lsn:1 ~slot:3 ~value:10;
  R.Kv_store.apply_update kv ~lsn:2 ~slot:4 ~value:20;
  let log =
    [
      R.Log_record.Begin { txn = 1; lsn = 0 };
      R.Log_record.Update { txn = 1; lsn = 1; slot = 3; old_value = 0; new_value = 10 };
      R.Log_record.Update { txn = 1; lsn = 2; slot = 4; old_value = 0; new_value = 20 };
      R.Log_record.Commit { txn = 1; lsn = 3 };
    ]
  in
  R.Kv_store.crash kv;
  let st = R.Kv_store.recover kv ~log in
  checki "slot 3 redone" 10 (R.Kv_store.get kv 3);
  checki "slot 4 redone" 20 (R.Kv_store.get kv 4);
  checki "redo count" 2 st.R.Kv_store.redo_applied;
  checki "no undo" 0 st.R.Kv_store.undo_applied;
  checki "start lsn" 1 st.R.Kv_store.start_lsn

let test_kv_recover_undo_uncommitted () =
  let _, kv = fresh_kv () in
  (* Committed txn 1 writes 10; uncommitted txn 2 overwrites with 99 and a
     checkpoint propagates the dirty page; recovery must undo 99. *)
  R.Kv_store.apply_update kv ~lsn:1 ~slot:3 ~value:10;
  R.Kv_store.apply_update kv ~lsn:5 ~slot:3 ~value:99;
  ignore (R.Kv_store.checkpoint kv);
  let log =
    [
      R.Log_record.Begin { txn = 1; lsn = 0 };
      R.Log_record.Update { txn = 1; lsn = 1; slot = 3; old_value = 0; new_value = 10 };
      R.Log_record.Commit { txn = 1; lsn = 2 };
      R.Log_record.Begin { txn = 2; lsn = 4 };
      R.Log_record.Update { txn = 2; lsn = 5; slot = 3; old_value = 10; new_value = 99 };
    ]
  in
  R.Kv_store.crash kv;
  let st = R.Kv_store.recover kv ~log in
  checki "uncommitted undone" 10 (R.Kv_store.get kv 3);
  checki "one undo" 1 st.R.Kv_store.undo_applied

let test_kv_recover_uses_checkpoint_start () =
  let _, kv = fresh_kv () in
  R.Kv_store.apply_update kv ~lsn:1 ~slot:0 ~value:5;
  ignore (R.Kv_store.checkpoint kv);
  R.Kv_store.apply_update kv ~lsn:10 ~slot:1 ~value:7;
  checkb "start after checkpoint" true
    (R.Kv_store.recovery_start_lsn kv = Some 10)

(* ------------------------------------------------------------------ *)
(* Tps_sim: the Section 5.2 ladder                                     *)
(* ------------------------------------------------------------------ *)

let test_tps_conventional_100 () =
  let r = R.Tps_sim.run ~n_txns:500 R.Wal.Conventional in
  within "conventional ~100 tps" 0.05 r.R.Tps_sim.tps 100.0

let test_tps_group_commit_1000 () =
  let r = R.Tps_sim.run ~n_txns:2000 R.Wal.Group_commit in
  within "group commit ~1000 tps" 0.05 r.R.Tps_sim.tps 1000.0

let test_tps_partitioned_scales () =
  (* Low-conflict regime (large account table): dependencies between
     commit groups are rare, so devices run in parallel. *)
  let r2 =
    R.Tps_sim.run ~nrecords:200_000 ~n_txns:2000
      (R.Wal.Partitioned { devices = 2 })
  in
  within "2 devices ~2000 tps" 0.08 r2.R.Tps_sim.tps 2000.0;
  let r4 =
    R.Tps_sim.run ~nrecords:200_000 ~n_txns:4000
      (R.Wal.Partitioned { devices = 4 })
  in
  within "4 devices ~4000 tps" 0.10 r4.R.Tps_sim.tps 4000.0

let test_tps_partitioned_conflict_collapses () =
  (* High-conflict regime: nearly every commit group depends on its
     predecessor, so the paper's topological ordering serializes the
     writes and extra devices buy nothing. *)
  let r =
    R.Tps_sim.run ~nrecords:60 ~n_txns:2000
      (R.Wal.Partitioned { devices = 4 })
  in
  checkb
    (Printf.sprintf "conflict-bound tps %.0f ~ single-device 1000"
       r.R.Tps_sim.tps)
    true
    (r.R.Tps_sim.tps < 1300.0)

let test_tps_stable_compressed_1800 () =
  let r =
    R.Tps_sim.run ~n_txns:4000
      (R.Wal.Stable { devices = 1; capacity_bytes = 64 * 1024; compressed = true })
  in
  within "stable compressed ~1800 tps" 0.10 r.R.Tps_sim.tps 1800.0

let test_tps_latency_sane () =
  let r = R.Tps_sim.run ~n_txns:200 ~arrival_interval:20e-3 R.Wal.Conventional in
  (* Open loop slower than the device: every commit waits exactly one
     page write. *)
  within "latency = 10ms" 0.01 r.R.Tps_sim.latency.U.Stats.mean 10e-3

(* ------------------------------------------------------------------ *)
(* Recovery_manager: end-to-end crash consistency                      *)
(* ------------------------------------------------------------------ *)

let run_with cfg = R.Recovery_manager.run cfg

let check_consistent name outcome =
  checkb (name ^ ": consistent") true outcome.R.Recovery_manager.consistent;
  checkb (name ^ ": money conserved") true
    outcome.R.Recovery_manager.money_conserved

let test_recovery_clean_shutdown () =
  let o = run_with R.Recovery_manager.default_config in
  check_consistent "clean" o;
  checki "all committed" 2000 o.R.Recovery_manager.durably_committed

let test_recovery_crash_loses_tail () =
  let cfg =
    { R.Recovery_manager.default_config with
      R.Recovery_manager.crash_after = Some 1995 }
  in
  let o = run_with cfg in
  check_consistent "tail loss" o;
  checkb "some loss or all durable" true
    (o.R.Recovery_manager.durably_committed <= 1995);
  (* Group commit: the open partial group is lost. *)
  checkb "tail actually lost" true
    (o.R.Recovery_manager.durably_committed < 1995)

let test_recovery_all_strategies_consistent () =
  List.iter
    (fun strategy ->
      List.iter
        (fun crash_after ->
          let cfg =
            {
              R.Recovery_manager.default_config with
              R.Recovery_manager.strategy;
              crash_after;
              n_txns = 600;
              checkpoint_every = Some 150;
            }
          in
          let o = run_with cfg in
          check_consistent
            (Printf.sprintf "%s crash=%s"
               (R.Tps_sim.strategy_label strategy)
               (match crash_after with
               | Some k -> string_of_int k
               | None -> "none"))
            o)
        [ None; Some 100; Some 599 ])
    [
      R.Wal.Conventional;
      R.Wal.Group_commit;
      R.Wal.Partitioned { devices = 3 };
      R.Wal.Stable { devices = 1; capacity_bytes = 32768; compressed = true };
    ]

let test_recovery_checkpoint_bounds_redo () =
  let base =
    { R.Recovery_manager.default_config with
      R.Recovery_manager.n_txns = 1000 }
  in
  let no_ckpt =
    run_with { base with R.Recovery_manager.checkpoint_every = None }
  in
  let frequent =
    run_with { base with R.Recovery_manager.checkpoint_every = Some 100 }
  in
  check_consistent "no checkpoint" no_ckpt;
  check_consistent "frequent checkpoint" frequent;
  checkb "checkpointing reduces redo work" true
    (frequent.R.Recovery_manager.recover_stats.R.Kv_store.redo_applied
    < no_ckpt.R.Recovery_manager.recover_stats.R.Kv_store.redo_applied);
  checkb "checkpointing reduces recovery time" true
    (frequent.R.Recovery_manager.recover_stats.R.Kv_store.recovery_time
    <= no_ckpt.R.Recovery_manager.recover_stats.R.Kv_store.recovery_time)

let test_recovery_compression_shrinks_log () =
  let base =
    { R.Recovery_manager.default_config with R.Recovery_manager.n_txns = 800 }
  in
  let group =
    run_with { base with R.Recovery_manager.strategy = R.Wal.Group_commit }
  in
  let stable =
    run_with
      {
        base with
        R.Recovery_manager.strategy =
          R.Wal.Stable
            { devices = 1; capacity_bytes = 32768; compressed = true };
      }
  in
  check_consistent "group" group;
  check_consistent "stable" stable;
  within "compressed disk log ~ 0.55 of full" 0.06
    (float_of_int stable.R.Recovery_manager.log_disk_bytes
    /. float_of_int group.R.Recovery_manager.log_disk_bytes)
    0.55

let qcheck_crash_consistency =
  QCheck.Test.make ~name:"recovery is consistent at any crash point" ~count:25
    QCheck.(pair (int_range 1 400) (int_range 0 3))
    (fun (crash_after, strat_idx) ->
      let strategy =
        match strat_idx with
        | 0 -> R.Wal.Conventional
        | 1 -> R.Wal.Group_commit
        | 2 -> R.Wal.Partitioned { devices = 2 }
        | _ ->
          R.Wal.Stable { devices = 1; capacity_bytes = 16384; compressed = true }
      in
      let cfg =
        {
          R.Recovery_manager.default_config with
          R.Recovery_manager.n_txns = 400;
          checkpoint_every = Some 97;
          strategy;
          crash_after = Some crash_after;
          seed = crash_after * 31;
        }
      in
      let o = run_with cfg in
      o.R.Recovery_manager.consistent && o.R.Recovery_manager.money_conserved)

(* ------------------------------------------------------------------ *)
(* Parallel replay, adaptive logging, restart-crash resilience         *)
(* ------------------------------------------------------------------ *)

let replay_cfg ?(workers = 4) ?(logging = R.Recovery_manager.Value_logging)
    ?crash_steps () =
  {
    R.Recovery_manager.workers;
    use_domains = false;
    logging;
    crash_steps;
    record_replay = false;
  }

let para_cfg ?(crash_after = 170) ?(faults = []) replay =
  {
    R.Recovery_manager.default_config with
    R.Recovery_manager.nrecords = 120;
    records_per_page = 10;
    updates_per_txn = 4;
    n_txns = 200;
    checkpoint_every = Some 60;
    crash_after = Some crash_after;
    faults;
    seed = 5;
    replay;
  }

let test_command_logging_consistent_and_smaller () =
  let value = run_with (para_cfg (replay_cfg ())) in
  let command =
    run_with
      (para_cfg (replay_cfg ~logging:R.Recovery_manager.Command_logging ()))
  in
  check_consistent "value" value;
  check_consistent "command" command;
  checki "value mode logs no command txns" 0
    value.R.Recovery_manager.command_txns;
  checkb "command mode logs command txns" true
    (command.R.Recovery_manager.command_txns > 0);
  checkb "command log is smaller on disk" true
    (command.R.Recovery_manager.log_disk_bytes
    < value.R.Recovery_manager.log_disk_bytes)

let test_adaptive_mixes_record_kinds () =
  (* At 4 workers the model prices cross-partition command replay (as
     serial) above parallel value replay, so adaptive logging
     demotes cross-partition transactions to value records while keeping
     single-partition ones as commands. *)
  let o =
    run_with
      (para_cfg (replay_cfg ~logging:R.Recovery_manager.Adaptive_logging ()))
  in
  check_consistent "adaptive" o;
  checkb "some txns command-logged" true
    (o.R.Recovery_manager.command_txns > 0);
  checkb "some txns value-logged" true
    (o.R.Recovery_manager.command_txns < o.R.Recovery_manager.submitted)

let test_parallel_replay_equivalence () =
  let w1 = run_with (para_cfg (replay_cfg ~workers:1 ())) in
  let w4 = run_with (para_cfg (replay_cfg ~workers:4 ())) in
  check_consistent "1 worker" w1;
  check_consistent "4 workers" w4;
  checki "same redo work"
    w1.R.Recovery_manager.recover_stats.R.Kv_store.redo_applied
    w4.R.Recovery_manager.recover_stats.R.Kv_store.redo_applied;
  checkb "replay time shrinks with workers" true
    (w4.R.Recovery_manager.recover_stats.R.Kv_store.recovery_time
    < w1.R.Recovery_manager.recover_stats.R.Kv_store.recovery_time)

let test_restart_crash_matrix () =
  (* Crash point x second crash during replay x fault spec: every cell
     must come back with full invariants after the restarted recovery. *)
  List.iter
    (fun spec ->
      let rules =
        match Mmdb_fault.Fault_plan.of_spec spec with
        | Ok r -> r
        | Error m -> Alcotest.fail m
      in
      List.iter
        (fun crash_after ->
          List.iter
            (fun steps ->
              let o =
                run_with
                  (para_cfg ~crash_after ~faults:rules
                     (replay_cfg ~logging:R.Recovery_manager.Adaptive_logging
                        ~crash_steps:steps ()))
              in
              let name =
                Printf.sprintf "%s crash@%d steps=%d" spec crash_after steps
              in
              check_consistent name o;
              checkb (name ^ ": durable") true
                o.R.Recovery_manager.durability_ok)
            [ 1; 8; 64 ])
        [ 40; 170; 200 ])
    [ "none"; "torn-tail" ]

let test_crash_at_last_writeback_step () =
  (* The nastiest restart point: the crash budget expires exactly at the
     last write-back page write, right before the dirty-page table
     clears — the restarted recovery must see fully-advanced redo/undo
     floors and still converge. *)
  let clean =
    run_with
      (para_cfg (replay_cfg ~logging:R.Recovery_manager.Adaptive_logging ()))
  in
  let st = clean.R.Recovery_manager.recover_stats in
  let total =
    st.R.Kv_store.redo_applied + st.R.Kv_store.undo_applied
    + st.R.Kv_store.pages_written_back
  in
  checkb "clean run does replay work" true (total > 0);
  let o =
    run_with
      (para_cfg
         (replay_cfg ~logging:R.Recovery_manager.Adaptive_logging
            ~crash_steps:total ()))
  in
  checki "restart happened" 2 o.R.Recovery_manager.recovery_attempts;
  check_consistent "crash at end of write-back" o;
  checkb "durable" true o.R.Recovery_manager.durability_ok

(* ------------------------------------------------------------------ *)
(* Restart analysis on hand-built logs                                 *)
(* ------------------------------------------------------------------ *)

let update ~txn ~lsn ~slot ~old_value ~new_value =
  R.Log_record.Update { txn; lsn; slot; old_value; new_value }

(* A merged log can put a transaction's Commit ahead of its updates: it
   is still a winner, so its updates are redone and never undone. *)
let test_analysis_commit_before_updates () =
  let _, kv = fresh_kv () in
  R.Kv_store.apply_update kv ~lsn:2 ~slot:3 ~value:10;
  let log =
    [
      R.Log_record.Commit { txn = 1; lsn = 3 };
      R.Log_record.Begin { txn = 1; lsn = 1 };
      update ~txn:1 ~lsn:2 ~slot:3 ~old_value:0 ~new_value:10;
    ]
  in
  R.Kv_store.crash kv;
  let st = R.Kv_store.recover kv ~log in
  checki "redone" 10 (R.Kv_store.get kv 3);
  checki "one redo" 1 st.R.Kv_store.redo_applied;
  checki "no undo" 0 st.R.Kv_store.undo_applied

(* Undo starts at a loser's lowest LSN even when a later-LSN record of
   it comes first in the merged log. *)
let test_analysis_loser_lowest_lsn () =
  let _, kv = fresh_kv () in
  R.Kv_store.apply_update kv ~lsn:4 ~slot:6 ~value:60;
  R.Kv_store.apply_update kv ~lsn:8 ~slot:5 ~value:50;
  ignore (R.Kv_store.checkpoint kv);
  let log =
    [
      update ~txn:2 ~lsn:8 ~slot:5 ~old_value:0 ~new_value:50;
      update ~txn:2 ~lsn:4 ~slot:6 ~old_value:0 ~new_value:60;
    ]
  in
  R.Kv_store.crash kv;
  let st = R.Kv_store.recover kv ~log in
  checki "start at lowest loser lsn" 4 st.R.Kv_store.start_lsn;
  checki "both scanned" 2 st.R.Kv_store.records_scanned;
  checki "both undone" 2 st.R.Kv_store.undo_applied;
  checki "slot 5 undone" 0 (R.Kv_store.get kv 5);
  checki "slot 6 undone" 0 (R.Kv_store.get kv 6)

(* An aborted transaction logged its compensations before Abort; undo
   must leave it alone. *)
let test_analysis_abort_not_undone () =
  let _, kv = fresh_kv () in
  R.Kv_store.apply_update kv ~lsn:2 ~slot:3 ~value:7;
  R.Kv_store.apply_update kv ~lsn:3 ~slot:3 ~value:0;
  let log =
    [
      R.Log_record.Begin { txn = 3; lsn = 1 };
      update ~txn:3 ~lsn:2 ~slot:3 ~old_value:0 ~new_value:7;
      update ~txn:3 ~lsn:3 ~slot:3 ~old_value:7 ~new_value:0;
      R.Log_record.Abort { txn = 3; lsn = 4 };
    ]
  in
  R.Kv_store.crash kv;
  let st = R.Kv_store.recover kv ~log in
  checki "rolled back by redo" 0 (R.Kv_store.get kv 3);
  checki "two redo" 2 st.R.Kv_store.redo_applied;
  checki "no undo" 0 st.R.Kv_store.undo_applied

(* Two loser updates to one slot: newest-first undo restores the oldest
   before-image; oldest-first would leave the middle one. *)
let test_analysis_undo_newest_first () =
  let _, kv = fresh_kv () in
  R.Kv_store.apply_update kv ~lsn:2 ~slot:3 ~value:5;
  R.Kv_store.apply_update kv ~lsn:3 ~slot:3 ~value:9;
  R.Kv_store.apply_update kv ~lsn:4 ~slot:4 ~value:1;
  let log =
    [
      R.Log_record.Begin { txn = 4; lsn = 1 };
      update ~txn:4 ~lsn:2 ~slot:3 ~old_value:0 ~new_value:5;
      update ~txn:4 ~lsn:3 ~slot:3 ~old_value:5 ~new_value:9;
      R.Log_record.Command { txn = 4; lsn = 4; ops = [ (4, 1) ] };
    ]
  in
  R.Kv_store.crash kv;
  let st = R.Kv_store.recover kv ~log in
  checki "oldest before-image restored" 0 (R.Kv_store.get kv 3);
  checki "command delta reversed" 0 (R.Kv_store.get kv 4);
  checki "three undo" 3 st.R.Kv_store.undo_applied

(* A drawn restart for the analysis table.  [n] (1,000-4,000)
   transactions, so the table doubles several times, with distinct ids
   drawn over the whole int range: runs from bases next to [min_int] and
   [max_int] and from anywhere, each run stepping by 2^k, so a run with a
   large step agrees in the low bits that index the table and only its
   high bits tell its ids apart.  Each transaction writes 1-3 slots by
   value or command records, then commits, aborts with logged
   compensations, or is left a loser.  A quarter of the Commits are
   merged ahead of their updates, up to 63 transactions early, so some
   land before a doubling of the table and their updates after it.  A
   fuzzy checkpoint runs halfway.  Returns the crashed store, its log,
   and each page's redo gate (its highest LSN at the checkpoint). *)
let analysis_image seed =
  let rng = U.Xorshift.create seed in
  let n = U.Xorshift.int_in_range rng ~lo:1_000 ~hi:4_000 in
  let any () =
    U.Xorshift.int rng (1 lsl 30)
    lor (U.Xorshift.int rng (1 lsl 30) lsl 30)
    lor (U.Xorshift.int rng 8 lsl 60)
  in
  let seen = Hashtbl.create n and ids = ref [] in
  while Hashtbl.length seen < n do
    let base =
      match U.Xorshift.int rng 4 with
      | 0 -> min_int + U.Xorshift.int rng 4
      | 1 -> max_int - U.Xorshift.int rng 4
      | _ -> any ()
    in
    let step = 1 lsl U.Xorshift.int rng 63 in
    for j = 0 to U.Xorshift.int rng 200 do
      let id = base + (j * step) in
      if Hashtbl.length seen < n && not (Hashtbl.mem seen id) then begin
        Hashtbl.replace seen id ();
        ids := id :: !ids
      end
    done
  done;
  let _, kv = fresh_kv ~nrecords:200 ~records_per_page:10 () in
  let page_lsn = Array.make 20 min_int and gate = Array.make 20 min_int in
  let lsn = ref 0 and per_txn = Array.make n [] in
  let next () =
    incr lsn;
    !lsn
  in
  let write ~lsn slot v =
    R.Kv_store.apply_update kv ~lsn ~slot ~value:v;
    page_lsn.(slot / 10) <- max page_lsn.(slot / 10) lsn
  in
  List.iteri
    (fun i txn ->
      let body = ref [] in
      let log_ops ops =
        if U.Xorshift.bool rng then begin
          let lsn = next () in
          List.iter (fun (s, d) -> write ~lsn s (R.Kv_store.get kv s + d)) ops;
          body := R.Log_record.Command { txn; lsn; ops } :: !body
        end
        else
          List.iter
            (fun (slot, d) ->
              let lsn = next () and old_value = R.Kv_store.get kv slot in
              write ~lsn slot (old_value + d);
              body :=
                update ~txn ~lsn ~slot ~old_value ~new_value:(old_value + d)
                :: !body)
            ops
      in
      let begin_ = R.Log_record.Begin { txn; lsn = next () } in
      let ops =
        List.init
          (1 + U.Xorshift.int rng 3)
          (fun _ -> (U.Xorshift.int rng 200, U.Xorshift.int rng 21 - 10))
      in
      log_ops ops;
      let fate = U.Xorshift.int rng 10 in
      if fate = 1 then log_ops (List.rev_map (fun (s, d) -> (s, -d)) ops);
      per_txn.(i) <- begin_ :: List.rev !body;
      (match fate with
      | 0 -> ()
      | 1 ->
        per_txn.(i) <- per_txn.(i) @ [ R.Log_record.Abort { txn; lsn = next () } ]
      | k ->
        let commit = R.Log_record.Commit { txn; lsn = next () } in
        if k < 4 then begin
          let j = max 0 (i - U.Xorshift.int rng 64) in
          per_txn.(j) <- commit :: per_txn.(j)
        end
        else per_txn.(i) <- per_txn.(i) @ [ commit ]);
      if i = n / 2 then begin
        ignore (R.Kv_store.checkpoint kv);
        Array.blit page_lsn 0 gate 0 20
      end)
    !ids;
  R.Kv_store.crash kv;
  (kv, List.concat (Array.to_list per_txn), gate)

(* What [Kv_store.recover] should do with [log] at [workers], from an
   analysis on [Stdlib.Hashtbl] and a serial replay in log order. *)
let reference_recover kv ~log ~gate ~workers ~use_domains =
  let terminated = Hashtbl.create 1024 and low = Hashtbl.create 64 in
  List.iter
    (fun r ->
      match r with
      | R.Log_record.Commit { txn; _ } | R.Log_record.Abort { txn; _ } ->
        Hashtbl.replace terminated txn ();
        Hashtbl.remove low txn
      | R.Log_record.Begin { txn; lsn }
      | R.Log_record.Update { txn; lsn; _ }
      | R.Log_record.Command { txn; lsn; _ } ->
        if not (Hashtbl.mem terminated txn) then
          Hashtbl.replace low txn
            (min lsn (Option.value ~default:max_int (Hashtbl.find_opt low txn)))
      | R.Log_record.Ckpt_begin _ | R.Log_record.Ckpt_end _ -> ())
    log;
  let scan_start =
    Hashtbl.fold
      (fun _ l acc -> min l acc)
      low
      (Option.value ~default:max_int (R.Kv_store.recovery_start_lsn kv))
  in
  let mem = Array.init 200 (R.Kv_store.snapshot_read kv) in
  let touched = Array.make 20 false and page s = s / 10 in
  let scanned = ref 0 and bytes = ref 0 and value_ops = ref 0 in
  let local_cmd = ref 0 and barrier_ops = ref 0 and barriers = ref 0 in
  let undo = ref [] and undone = ref 0 in
  List.iter
    (fun r ->
      if R.Log_record.lsn r >= scan_start then begin
        incr scanned;
        bytes := !bytes + R.Log_record.size_bytes ~compressed:false r;
        match r with
        | R.Log_record.Update { txn; lsn; slot; new_value; _ } ->
          if Hashtbl.mem low txn then undo := r :: !undo;
          if lsn > gate.(page slot) then begin
            incr value_ops;
            touched.(page slot) <- true;
            mem.(slot) <- new_value
          end
        | R.Log_record.Command { txn; lsn; ops } ->
          if Hashtbl.mem low txn then undo := r :: !undo;
          let ops = List.filter (fun (s, _) -> lsn > gate.(page s)) ops in
          List.iter
            (fun (s, d) ->
              touched.(page s) <- true;
              mem.(s) <- mem.(s) + d)
            ops;
          let parts = List.sort_uniq compare (List.map (fun (s, _) -> page s mod workers) ops) in
          if List.length parts > 1 then begin
            incr barriers;
            barrier_ops := !barrier_ops + List.length ops
          end
          else local_cmd := !local_cmd + List.length ops
        | R.Log_record.Begin _ | R.Log_record.Commit _ | R.Log_record.Abort _
        | R.Log_record.Ckpt_begin _ | R.Log_record.Ckpt_end _ -> ()
      end)
    log;
  let undo_op slot v =
    touched.(page slot) <- true;
    mem.(slot) <- v;
    incr undone
  in
  List.iter
    (function
      | R.Log_record.Update { slot; old_value; _ } -> undo_op slot old_value
      | R.Log_record.Command { ops; _ } ->
        List.iter (fun (s, d) -> undo_op s (mem.(s) - d)) ops
      | R.Log_record.Begin _ | R.Log_record.Commit _ | R.Log_record.Abort _
      | R.Log_record.Ckpt_begin _ | R.Log_record.Ckpt_end _ -> ())
    !undo;
  let written = Array.fold_left (fun n t -> if t then n + 1 else n) 0 touched in
  let terms =
    Mmdb_model.Recovery_model.replay_terms ~page_io_time:10e-3
      ~log_page_bytes:4096 ~workers ~snapshot_pages:20 ~log_bytes:!bytes
      ~local_value_ops:!value_ops ~local_command_ops:!local_cmd
      ~serial_command_ops:!barrier_ops ~undo_ops:!undone
      ~writeback_pages:written
  in
  ( mem,
    {
      R.Kv_store.start_lsn = (if scan_start = max_int then 0 else scan_start);
      records_scanned = !scanned;
      redo_applied = !value_ops + !local_cmd + !barrier_ops;
      undo_applied = !undone;
      snapshot_pages_read = 20;
      pages_rebuilt = 0;
      recovery_time = Mmdb_model.Recovery_model.replay_seconds terms;
      workers;
      local_value_ops = !value_ops;
      local_command_ops = !local_cmd;
      barrier_ops = !barrier_ops;
      barriers = !barriers;
      pages_written_back = written;
      log_bytes_scanned = !bytes;
      used_domains = use_domains && R.Domain_runner.available;
    } )

let qcheck_analysis_table =
  QCheck.Test.make ~name:"analysis table matches a Hashtbl analysis" ~count:20
    QCheck.(int_range 0 10_000)
    (fun seed ->
      List.for_all
        (fun (workers, use_domains) ->
          let kv, log, gate = analysis_image seed in
          let want = reference_recover kv ~log ~gate ~workers ~use_domains in
          let st = R.Kv_store.recover kv ~workers ~use_domains ~log in
          (R.Kv_store.balances kv, st) = want)
        (List.concat_map (fun w -> [ (w, false); (w, true) ]) [ 1; 2; 3; 4 ]))

(* ------------------------------------------------------------------ *)
(* Domains-mode replay against the simulated scheduler                 *)
(* ------------------------------------------------------------------ *)

(* A store and its log, built from [seed]: [n] transactions over 200
   slots (20 pages), each writing [ops] and value- or command-logged
   ([command] picks), then committed, aborted with logged compensations,
   or left a loser.  With [checkpoint], a fuzzy checkpoint runs after
   half of them. *)
let replay_image ~seed ~n ~checkpoint ~ops ~command =
  let rng = U.Xorshift.create seed in
  let _, kv = fresh_kv ~nrecords:200 ~records_per_page:10 () in
  let lsn = ref 0 in
  let next () =
    incr lsn;
    !lsn
  in
  let log = ref [] in
  let emit r = log := r :: !log in
  let add ~lsn (slot, d) =
    R.Kv_store.apply_update kv ~lsn ~slot ~value:(R.Kv_store.get kv slot + d)
  in
  for txn = 0 to n - 1 do
    emit (R.Log_record.Begin { txn; lsn = next () });
    let ops = ops rng in
    let log_ops ops =
      if command rng then begin
        let lsn = next () in
        List.iter (add ~lsn) ops;
        emit (R.Log_record.Command { txn; lsn; ops })
      end
      else
        List.iter
          (fun (slot, d) ->
            let lsn = next () in
            let old_value = R.Kv_store.get kv slot in
            add ~lsn (slot, d);
            emit (update ~txn ~lsn ~slot ~old_value ~new_value:(old_value + d)))
          ops
    in
    log_ops ops;
    (match U.Xorshift.int rng 10 with
    | 0 | 1 -> ()
    | 2 ->
      log_ops (List.rev_map (fun (s, d) -> (s, -d)) ops);
      emit (R.Log_record.Abort { txn; lsn = next () })
    | _ -> emit (R.Log_record.Commit { txn; lsn = next () }));
    if checkpoint && txn = n / 2 then ignore (R.Kv_store.checkpoint kv)
  done;
  R.Kv_store.crash kv;
  (kv, List.rev !log)

(* Recover two copies of one image, on domains and on the simulated
   scheduler; both must reach the same balances and statistics. *)
let domains_match ~workers image =
  let kv_d, log = image () in
  let kv_s, _ = image () in
  let d = R.Kv_store.recover kv_d ~workers ~use_domains:true ~log in
  let s = R.Kv_store.recover kv_s ~workers ~log in
  ( d,
    R.Kv_store.balances kv_d = R.Kv_store.balances kv_s
    && { d with R.Kv_store.used_domains = false } = s )

let qcheck_domains_replay =
  QCheck.Test.make ~name:"domains replay matches the simulated scheduler"
    ~count:40
    QCheck.(pair (int_range 0 10_000) (int_range 1 4))
    (fun (seed, workers) ->
      snd
        (domains_match ~workers (fun () ->
             replay_image ~seed ~n:60 ~checkpoint:true
               ~ops:(fun rng ->
                 List.init
                   (1 + U.Xorshift.int rng 4)
                   (fun _ ->
                     (U.Xorshift.int rng 200, U.Xorshift.int rng 21 - 10)))
               ~command:U.Xorshift.bool)))

let test_domains_cross_partition () =
  (* Every transaction is a command over two adjacent pages, which sit
     in different partitions at 2-4 workers, so each one is split
     across two domains. *)
  let transfer rng =
    let slot = U.Xorshift.int rng 190 and d = U.Xorshift.int rng 100 in
    [ (slot, d); (slot + 10, -d) ]
  in
  List.iter
    (fun workers ->
      let st, same =
        domains_match ~workers (fun () ->
            replay_image ~seed:workers ~n:2_500 ~checkpoint:false
              ~ops:transfer ~command:(fun _ -> true))
      in
      let name = Printf.sprintf "%d workers" workers in
      checkb (name ^ ": same as simulated") true same;
      checkb (name ^ ": >= 2000 cross-partition commands") true
        (st.R.Kv_store.barriers >= 2_000);
      checkb (name ^ ": domains used") R.Domain_runner.available
        st.R.Kv_store.used_domains)
    [ 2; 3; 4 ]

(* Each op of a command spanning 2-4 partitions replays on the
   partition that owns its slot: every Write in the simulated trace for
   slot [s] is stamped with domain [partition_of s], so no slot is ever
   written from two domains.  Value records interleaved with the
   commands make the final state order-sensitive; it must equal the log
   applied in order. *)
let test_cross_partition_ops_stay_home () =
  let workers = 4 and per_part = 10 in
  let partition_of slot = slot / per_part in
  let rng = U.Xorshift.create 31 and ncmds = 500 in
  (* A transaction pushes one Set and at most one Add per partition. *)
  let plan =
    R.Replay.create ~capacity:(Array.make workers (2 * ncmds)) ~partition_of
  in
  let expected = Array.make (workers * per_part) 0 in
  let cross_ops = ref 0 in
  for txn = 1 to ncmds do
    let slot = U.Xorshift.int rng (workers * per_part) in
    let v = U.Xorshift.int rng 1_000 in
    expected.(slot) <- v;
    R.Replay.add_op plan ~txn ~slot R.Replay.Set v;
    let first = U.Xorshift.int rng workers in
    let span = U.Xorshift.int_in_range rng ~lo:2 ~hi:workers in
    let ops =
      List.init span (fun k ->
          let p = (first + k) mod workers in
          ((p * per_part) + U.Xorshift.int rng per_part,
           U.Xorshift.int rng 21 - 10))
    in
    List.iter (fun (s, d) -> expected.(s) <- expected.(s) + d) ops;
    cross_ops := !cross_ops + span;
    R.Replay.add_command plan ~txn ops
  done;
  let recorder = R.Schedule.recorder ~now:(fun () -> 0.0) in
  let mem = Array.make (workers * per_part) 0 in
  let st =
    R.Replay.run ~recorder
      ~apply:(fun ~slot kind arg ->
        match kind with
        | R.Replay.Set -> mem.(slot) <- arg
        | R.Replay.Add -> mem.(slot) <- mem.(slot) + arg)
      plan
  in
  let writes =
    List.filter
      (fun (e : R.Schedule.event) -> e.R.Schedule.kind = R.Schedule.Write)
      (R.Schedule.events recorder)
  in
  checki "one Write per op" (ncmds + !cross_ops) (List.length writes);
  checki "every Write on its slot's partition" 0
    (List.length
       (List.filter
          (fun (e : R.Schedule.event) ->
            match e.R.Schedule.key with
            | Some s -> e.R.Schedule.domain <> partition_of s
            | None -> true)
          writes));
  checki "cross-partition commands counted" ncmds st.R.Replay.barriers;
  checki "their ops counted" !cross_ops st.R.Replay.barrier_ops;
  checki "value ops local" ncmds st.R.Replay.local_ops;
  checkb "final state is the log in order" true (mem = expected)

exception Boom

(* An [apply] that raises partway through a plan heavy in
   cross-partition commands makes [Replay.run] raise it, whether the
   failing op is local or one of such a command's: the other workers
   must still be joined, not left running. *)
let test_replay_raising_worker () =
  List.iter
    (fun (name, bad_slot) ->
      let plan =
        R.Replay.create ~capacity:(Array.make 3 4_000) ~partition_of:Fun.id
      in
      for i = 1 to 2_000 do
        R.Replay.add_op plan ~txn:i ~slot:4 R.Replay.Set i;
        R.Replay.add_command plan ~txn:i [ (0, 1); (1, -1) ]
      done;
      let seen = Atomic.make 0 in
      let apply ~slot _ _ =
        if slot = bad_slot && Atomic.fetch_and_add seen 1 = 1_000 then
          raise Boom
      in
      checkb name true
        (try
           ignore (R.Replay.run ~use_domains:true ~apply plan);
           false
         with Boom -> true))
    [ ("raise in a local op", 4); ("raise inside a cross-partition command", 0) ]

(* Replay allocates nothing per op: 100,000 value and command ops on the
   simulated scheduler, with no recorder and no [on_step], cost under
   0.01 minor words per op. *)
let test_replay_allocates_nothing () =
  let n = 100_000 and workers = 4 in
  let plan =
    R.Replay.create ~capacity:(Array.make workers n)
      ~partition_of:(fun slot -> slot / 10)
  in
  for i = 0 to n - 1 do
    let slot = i mod 200 in
    if i mod 3 = 0 then R.Replay.add_command plan ~txn:i [ (slot, 1) ]
    else R.Replay.add_op plan ~txn:i ~slot R.Replay.Set i
  done;
  let mem = Array.make 200 0 in
  let apply ~slot kind arg =
    match kind with
    | R.Replay.Set -> mem.(slot) <- arg
    | R.Replay.Add -> mem.(slot) <- mem.(slot) + arg
  in
  let before = Gc.minor_words () in
  let st = R.Replay.run ~apply plan in
  let words = Gc.minor_words () -. before in
  checki "every op replayed" n st.R.Replay.local_ops;
  checkb
    (Printf.sprintf "%.0f minor words for %d ops" words n)
    true
    (words /. float_of_int n < 0.01)

(* Retirement: every commit durable by the retire time leaves every
   pre-committed set, so the sets stay as small as the unflushed group
   instead of growing with the run. *)
let test_kernel_retirement () =
  let wal = R.Wal.create ~clock:(S.Sim_clock.create ()) R.Wal.Group_commit in
  let k = R.Txn.create ~nrecords:50 ~wal () in
  for i = 0 to 99 do
    ignore
      (R.Txn.run k ~txn:i
         ~at:(float_of_int i *. 1e-3)
         [ (i mod 50, 5); (((7 * i) + 3) mod 50, -5) ])
  done;
  let precommitted () =
    List.concat_map
      (fun key -> R.Lock_manager.precommitted (R.Txn.locks k) ~key)
      (List.init 50 Fun.id)
  in
  checkb "the open group is still pre-committed" true (precommitted () <> []);
  checkb "durable groups were retired" true (R.Txn.unretired k < 100);
  checki "only unretired commits stay pre-committed"
    (2 * R.Txn.unretired k)
    (List.length (precommitted ()));
  let done_at = R.Wal.flush wal ~at:0.1 in
  R.Txn.retire k ~at:(Float.max done_at (R.Wal.quiesce_time wal));
  checki "nothing pre-committed after flush" 0 (List.length (precommitted ()));
  checki "no ticket left unretired" 0 (R.Txn.unretired k)

(* Retirement order: the Commit_durable events (and so the finalizes)
   come out as a filter over every open ticket, newest submission first,
   would emit them: the same set at every retire, in the same order,
   whether or not completions are monotone in submission order.  Each
   retirement is keyed by the commits submitted before it, so one that
   comes late shows.  [gap] spaces the submissions; [retires] are extra
   retire times after the last one. *)
let retirement_order ~strategy ~gap ~retires =
  let clock = S.Sim_clock.create () in
  let recorder = R.Schedule.recorder ~now:(fun () -> S.Sim_clock.now clock) in
  let wal = R.Wal.create ~clock strategy in
  let k = R.Txn.create ~recorder ~nrecords:1000 ~wal () in
  let rng = U.Xorshift.create 77 in
  let open_tickets = ref [] and expected = ref [] and submitted = ref 0 in
  (* Whether some retirement held a newer commit durable before an older
     one: there, completion order is not the retirement order. *)
  let crossed = ref false in
  let filter_retire at =
    let last = ref infinity in
    open_tickets :=
      List.filter
        (fun tkt ->
          match R.Wal.ticket_completion tkt with
          | Some c when c <= at ->
            expected := (!submitted, R.Wal.ticket_txn tkt, c) :: !expected;
            if c > !last then crossed := true;
            last := c;
            false
          | Some _ | None -> true)
        !open_tickets
  in
  let retire at =
    R.Txn.retire k ~at;
    filter_retire at
  in
  for txn = 0 to 299 do
    (* Only two transfers in 60 share a slot (0): the page holding the
       second waits for the first's page, and the pages after it, on
       other devices, can finish first. *)
    let at = (float_of_int txn +. U.Xorshift.float rng 0.8) *. gap in
    let a =
      if txn mod 60 = 40 || txn mod 60 = 55 then 0 else 1 + (2 * txn mod 998)
    in
    let b = 1 + (((2 * txn) + 1) mod 998) in
    let o = R.Txn.run k ~txn ~at [ (a, 3); (b, -3) ] in
    incr submitted;
    open_tickets := o.R.Txn.ticket :: !open_tickets;
    filter_retire at
  done;
  let last_at = 300.0 *. gap in
  let done_at = R.Wal.flush wal ~at:last_at in
  List.iter (fun dt -> retire (last_at +. dt)) retires;
  retire (Float.max done_at (R.Wal.quiesce_time wal));
  let precommits = ref 0 in
  let got =
    List.filter_map
      (fun (e : R.Schedule.event) ->
        match e.R.Schedule.kind with
        | R.Schedule.Precommit ->
          incr precommits;
          None
        | R.Schedule.Commit_durable ->
          Some (!precommits, e.R.Schedule.txn, e.R.Schedule.time)
        | _ -> None)
      (R.Schedule.events recorder)
  in
  (got, List.rev !expected, !crossed, R.Txn.unretired k)

let test_kernel_retirement_order () =
  List.iter
    (fun strategy ->
      List.iter
        (fun (pace, gap, retires) ->
          let got, expected, crossed, unretired =
            retirement_order ~strategy ~gap ~retires
          in
          let name = R.Tps_sim.strategy_label strategy ^ " " ^ pace in
          checki (name ^ ": every commit retired") 300 (List.length got);
          checkb (name ^ ": same retirements in the same order") true
            (got = expected);
          checki (name ^ ": nothing unretired") 0 unretired;
          match (strategy, pace) with
          | R.Wal.Partitioned _, "burst" ->
            checkb (name ^ ": a retirement crosses completion order") true
              crossed
          | _ -> ())
        (* Spread, the commits retire as they go; in a burst every page
           is still in flight at the last commit, and the staged retires
           take several pages at once. *)
        [ ("spread", 1.2e-4, []); ("burst", 2e-5, [ 0.012; 0.024 ]) ])
    [
      R.Wal.Conventional;
      R.Wal.Group_commit;
      R.Wal.Partitioned { devices = 4 };
      R.Wal.Stable { devices = 2; capacity_bytes = 16_384; compressed = false };
    ]

(* FAULT008's demotion, driven directly: [Recovery_manager] sets
   [strict_page_order] whenever it crashes mid-write, so it never leaves
   an incomplete record set behind.  Without it, a partitioned log holds
   a page behind the commit group it depends on while the next page, on
   another device, is written at once: a transaction that straddles the
   two has its Commit durable before its earlier records.  A crash in
   between must demote it to a loser. *)
let test_surviving_log_demotes_incomplete () =
  let wal = R.Wal.create ~clock:(S.Sim_clock.create ()) (R.Wal.Partitioned { devices = 3 }) in
  let k = R.Txn.create ~nrecords:5000 ~wal () in
  let rng = U.Xorshift.create 3 in
  for txn = 0 to 199 do
    let slots = List.sort_uniq compare (List.init 3 (fun _ -> U.Xorshift.int rng 5000)) in
    ignore (R.Txn.run k ~txn ~at:(float_of_int txn *. 1e-4) (List.map (fun s -> (s, 1)) slots))
  done;
  ignore (R.Wal.flush wal ~at:0.2);
  (* The transactions whose Commit survives a crash at [at] without the
     rest of their LSN run. *)
  let incomplete at =
    let records = R.Wal.surviving_records wal ~at in
    List.filter_map
      (function
        | R.Log_record.Commit { txn; lsn } -> (
          match List.filter (fun r -> R.Log_record.txn r = Some txn) records with
          | R.Log_record.Begin { lsn = first; _ } :: _ as run
            when List.length run = lsn - first + 1 ->
            None
          | _ -> Some txn)
        | _ -> None)
      records
  in
  let crash_points = List.concat_map (fun (a, b) -> [ a; b ]) (R.Wal.page_spans wal) in
  match List.find_opt (fun at -> incomplete at <> []) crash_points with
  | None -> Alcotest.fail "no crash point leaves an incomplete record set"
  | Some at ->
    let losers = incomplete at in
    let survivors = R.Txn.surviving_log k ~at in
    checkb "incomplete commits demoted" true
      (List.for_all
         (fun txn ->
           not (List.exists (function R.Log_record.Commit { txn = t; _ } -> t = txn | _ -> false) survivors))
         losers);
    checki "FAULT008 noted per demoted txn" (List.length losers)
      (Option.value ~default:0
         (List.assoc_opt "FAULT008" (Mmdb_fault.Fault_plan.event_counts (R.Wal.faults wal))))

let () =
  Alcotest.run "mmdb_recovery"
    [
      ( "log_record",
        [ Alcotest.test_case "sizes" `Quick test_record_sizes ] );
      ( "log_device",
        [
          Alcotest.test_case "queuing" `Quick test_log_device_queuing;
          Alcotest.test_case "durability cutoff" `Quick
            test_log_device_durability_cutoff;
          Alcotest.test_case "oversize rejected" `Quick
            test_log_device_oversize_rejected;
        ] );
      ( "stable_memory",
        [
          Alcotest.test_case "capacity" `Quick test_stable_memory_capacity;
          Alcotest.test_case "fifo drain" `Quick test_stable_memory_fifo_drain;
          Alcotest.test_case "peek/drop" `Quick test_stable_memory_peek_drop;
          Alcotest.test_case "table" `Quick test_stable_memory_table;
        ] );
      ( "lock_manager",
        [
          Alcotest.test_case "basic grant/wait" `Quick test_lock_basic_grant;
          Alcotest.test_case "precommit dependencies" `Quick
            test_lock_precommit_dependency;
          Alcotest.test_case "waiter woken on precommit" `Quick
            test_lock_waiter_woken_on_precommit;
          Alcotest.test_case "abort releases" `Quick test_lock_abort_releases;
          Alcotest.test_case "re-acquire held" `Quick test_lock_reacquire_held;
          Alcotest.test_case "acquire after precommit raises" `Quick
            test_lock_acquire_after_precommit_raises;
          Alcotest.test_case "acquire after abort raises" `Quick
            test_lock_acquire_after_abort_raises;
          Alcotest.test_case "wake dependency property" `Quick
            test_lock_wake_dependency_property;
          Alcotest.test_case "schedule recording" `Quick
            test_lock_schedule_recording;
          Alcotest.test_case "finished ids stay rejected" `Quick
            test_lock_finished_ids_stay_rejected;
          QCheck_alcotest.to_alcotest qcheck_lock_manager_model;
        ] );
      ( "wal",
        [
          Alcotest.test_case "conventional serializes" `Quick
            test_wal_conventional_serializes;
          Alcotest.test_case "group commit batches" `Quick
            test_wal_group_commit_batches;
          Alcotest.test_case "partitioned parallel" `Quick
            test_wal_partitioned_parallelism;
          Alcotest.test_case "partitioned dependency order" `Quick
            test_wal_partitioned_dependency_ordering;
          Alcotest.test_case "stable immediate commit" `Quick
            test_wal_stable_immediate_commit;
          Alcotest.test_case "stable backpressure" `Quick
            test_wal_stable_backpressure;
          Alcotest.test_case "stable compression" `Quick
            test_wal_stable_compression_on_disk;
          Alcotest.test_case "durable cutoff (group)" `Quick
            test_wal_durable_cutoff_group;
          Alcotest.test_case "time order enforced" `Quick
            test_wal_time_order_enforced;
          QCheck_alcotest.to_alcotest qcheck_wal_dependency_order;
        ] );
      ( "workload",
        [
          Alcotest.test_case "properties" `Quick test_workload_properties;
          Alcotest.test_case "apply" `Quick test_workload_apply;
        ] );
      ( "kv_store",
        [
          Alcotest.test_case "basics" `Quick test_kv_basics;
          Alcotest.test_case "dirty table first-lsn" `Quick
            test_kv_dirty_table_first_lsn;
          Alcotest.test_case "checkpoint clears" `Quick
            test_kv_checkpoint_clears;
          Alcotest.test_case "crash blocks reads" `Quick
            test_kv_crash_blocks_reads;
          Alcotest.test_case "recover redo" `Quick test_kv_recover_redo;
          Alcotest.test_case "recover undo uncommitted" `Quick
            test_kv_recover_undo_uncommitted;
          Alcotest.test_case "checkpoint advances start" `Quick
            test_kv_recover_uses_checkpoint_start;
        ] );
      ( "txn",
        [
          Alcotest.test_case "retirement" `Quick test_kernel_retirement;
          Alcotest.test_case "retirement order" `Quick
            test_kernel_retirement_order;
          Alcotest.test_case "surviving log demotes incomplete commits" `Quick
            test_surviving_log_demotes_incomplete;
        ] );
      ( "tps_sim",
        [
          Alcotest.test_case "conventional ~100" `Quick
            test_tps_conventional_100;
          Alcotest.test_case "group commit ~1000" `Quick
            test_tps_group_commit_1000;
          Alcotest.test_case "partitioned scales" `Quick
            test_tps_partitioned_scales;
          Alcotest.test_case "partitioned conflict collapse" `Quick
            test_tps_partitioned_conflict_collapses;
          Alcotest.test_case "stable compressed ~1800" `Quick
            test_tps_stable_compressed_1800;
          Alcotest.test_case "open-loop latency" `Quick test_tps_latency_sane;
        ] );
      ( "recovery_manager",
        [
          Alcotest.test_case "clean shutdown" `Quick
            test_recovery_clean_shutdown;
          Alcotest.test_case "crash loses tail" `Quick
            test_recovery_crash_loses_tail;
          Alcotest.test_case "all strategies consistent" `Slow
            test_recovery_all_strategies_consistent;
          Alcotest.test_case "checkpoint bounds redo" `Quick
            test_recovery_checkpoint_bounds_redo;
          Alcotest.test_case "compression shrinks log" `Quick
            test_recovery_compression_shrinks_log;
          QCheck_alcotest.to_alcotest qcheck_crash_consistency;
        ] );
      ( "parallel_replay",
        [
          Alcotest.test_case "command logging consistent and smaller" `Quick
            test_command_logging_consistent_and_smaller;
          Alcotest.test_case "adaptive mixes record kinds" `Quick
            test_adaptive_mixes_record_kinds;
          Alcotest.test_case "worker-count equivalence" `Quick
            test_parallel_replay_equivalence;
          Alcotest.test_case "restart-crash matrix" `Slow
            test_restart_crash_matrix;
          Alcotest.test_case "crash at last write-back step" `Quick
            test_crash_at_last_writeback_step;
          QCheck_alcotest.to_alcotest qcheck_domains_replay;
          Alcotest.test_case "domains cross-partition replay" `Quick
            test_domains_cross_partition;
          Alcotest.test_case "ops stay on their partition" `Quick
            test_cross_partition_ops_stay_home;
          Alcotest.test_case "raising worker does not hang" `Quick
            test_replay_raising_worker;
          Alcotest.test_case "replay allocates nothing per op" `Quick
            test_replay_allocates_nothing;
        ] );
      ( "restart_analysis",
        [
          Alcotest.test_case "commit before updates" `Quick
            test_analysis_commit_before_updates;
          Alcotest.test_case "loser lowest lsn" `Quick
            test_analysis_loser_lowest_lsn;
          Alcotest.test_case "abort not undone" `Quick
            test_analysis_abort_not_undone;
          Alcotest.test_case "undo newest first" `Quick
            test_analysis_undo_newest_first;
          QCheck_alcotest.to_alcotest qcheck_analysis_table;
        ] );
    ]
