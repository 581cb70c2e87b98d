(* Fault-plane tests: CRC-32 checksums, the log wire encoding and its
   corruption detection, torn-tail truncation at every cut point, typed
   storage faults (transient retry, pool rot + scrub), stable-memory
   battery droop, and the crash-point torture property's determinism,
   its no-silent-corruption verdict and the counterexamples it shrank. *)

module U = Mmdb_util
module S = Mmdb_storage
module R = Mmdb_recovery
module L = R.Log_record
module V = Mmdb_verify
module Fault = Mmdb_fault.Fault
module Plan = Mmdb_fault.Fault_plan

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

(* ------------------------------------------------------------------ *)
(* Checksums                                                           *)
(* ------------------------------------------------------------------ *)

let test_crc32_vector () =
  (* The CRC-32/IEEE check value. *)
  checki "123456789" 0xCBF43926 (U.Checksum.crc32_bytes (Bytes.of_string "123456789"));
  checki "empty" 0 (U.Checksum.crc32_bytes Bytes.empty)

let test_page_checksum () =
  let p = Bytes.make 256 '\000' in
  Bytes.set p 17 'x';
  let sum = S.Page.checksum p in
  checki "deterministic" sum (S.Page.checksum p);
  Bytes.set p 200 '\001';
  checkb "sensitive to any byte" true (sum <> S.Page.checksum p)

(* ------------------------------------------------------------------ *)
(* Log wire encoding                                                   *)
(* ------------------------------------------------------------------ *)

let sample_records =
  [
    L.Begin { txn = 3; lsn = 1 };
    L.Update { txn = 3; lsn = 2; slot = 7; old_value = -41; new_value = 59 };
    L.Update
      { txn = 3; lsn = 3; slot = 1023; old_value = 1_000_000;
        new_value = -1_000_000 };
    L.Commit { txn = 3; lsn = 4 };
    L.Begin { txn = 4; lsn = 5 };
    L.Update { txn = 4; lsn = 6; slot = 0; old_value = 0; new_value = 1 };
    L.Abort { txn = 4; lsn = 7 };
    L.Ckpt_begin { lsn = 8 };
    L.Ckpt_end { lsn = 9 };
    L.Command { txn = 5; lsn = 10; ops = [] };
    L.Command { txn = 5; lsn = 11; ops = [ (7, -41) ] };
    L.Command
      { txn = 5; lsn = 12;
        ops = [ (0, 1); (1023, -1_000_000); (512, 999_999) ] };
  ]

let test_encode_roundtrip () =
  List.iter
    (fun r ->
      let b = L.encode ~compressed:false r in
      checki "declared size" (Bytes.length b)
        (L.size_bytes ~compressed:false r);
      match L.decode_run b ~pos:0 ~len:(Bytes.length b) with
      | [ r' ], None -> checkb "roundtrip" true (r = r')
      | _, Some m -> Alcotest.failf "decode failed: %s" m
      | _, None -> Alcotest.fail "not one record")
    sample_records

let test_encode_roundtrip_compressed () =
  (* Compressed updates carry new values only (Section 5.4): the decoded
     record has old_value = 0; everything else round-trips. *)
  List.iter
    (fun r ->
      let b = L.encode ~compressed:true r in
      match L.decode_run b ~pos:0 ~len:(Bytes.length b) with
      | [ r' ], None ->
        let expect =
          match r with
          | L.Update { txn; lsn; slot; old_value = _; new_value } ->
            L.Update { txn; lsn; slot; old_value = 0; new_value }
          | other -> other
        in
        checkb "roundtrip (new values only)" true (expect = r')
      | _, Some m -> Alcotest.failf "decode failed: %s" m
      | _, None -> Alcotest.fail "not one record")
    sample_records

let test_decode_detects_any_bit_flip () =
  (* CRC-32 detects every single-bit error, so no flipped copy may decode
     to a (different) valid record. *)
  let r = List.nth sample_records 1 in
  let b = L.encode ~compressed:false r in
  for byte = 0 to Bytes.length b - 1 do
    for bit = 0 to 7 do
      let c = Bytes.copy b in
      Bytes.set c byte
        (Char.chr (Char.code (Bytes.get c byte) lxor (1 lsl bit)));
      match L.decode_run c ~pos:0 ~len:(Bytes.length c) with
      | [], Some _ -> ()
      | r' :: _, _ when r' <> r ->
        Alcotest.failf "byte %d bit %d decoded to a different record" byte bit
      | _ -> Alcotest.failf "byte %d bit %d: flip not detected" byte bit
    done
  done

let test_decode_run_every_cut () =
  (* Torn tail: whatever byte the tear lands on, decode_run recovers
     exactly the checksum-valid prefix of whole records. *)
  let bufs = List.map (L.encode ~compressed:false) sample_records in
  let total = List.fold_left (fun a b -> a + Bytes.length b) 0 bufs in
  let buf = Bytes.create total in
  let boundaries = ref [ 0 ] in
  let pos = ref 0 in
  List.iter
    (fun b ->
      Bytes.blit b 0 buf !pos (Bytes.length b);
      pos := !pos + Bytes.length b;
      boundaries := !pos :: !boundaries)
    bufs;
  for cut = 0 to total do
    let decoded, err = L.decode_run buf ~pos:0 ~len:cut in
    let expect =
      let n = ref 0 and acc = ref 0 and stopped = ref false in
      List.iter
        (fun b ->
          if (not !stopped) && !acc + Bytes.length b <= cut then begin
            incr n;
            acc := !acc + Bytes.length b
          end
          else stopped := true)
        bufs;
      !n
    in
    checki (Printf.sprintf "cut %d: record prefix" cut) expect
      (List.length decoded);
    checkb
      (Printf.sprintf "cut %d: whole records iff boundary" cut)
      (List.mem cut !boundaries)
      (err = None);
    checkb
      (Printf.sprintf "cut %d: prefix content" cut)
      true
      (decoded
      = List.filteri (fun i _ -> i < expect) sample_records)
  done

(* Shrunk by the torture property (conventional commit, bitflip plus
   snapshot-rot, 37 transactions, crash after 34): a read flip that
   turned a Begin tag (1) into 0 made the page look zero-padded, so the
   run ended clean and the transaction's commit was dropped unreported.
   Every single-bit flip anywhere in a page must stop the run with an
   error, never end it quietly short. *)
let test_decode_run_detects_any_bit_flip () =
  let page =
    Bytes.concat Bytes.empty
      (List.map (L.encode ~compressed:false) sample_records)
  in
  let len = Bytes.length page in
  for byte = 0 to len - 1 do
    for bit = 0 to 7 do
      let c = Bytes.copy page in
      Bytes.set c byte
        (Char.chr (Char.code (Bytes.get c byte) lxor (1 lsl bit)));
      match L.decode_run c ~pos:0 ~len with
      | _, Some _ -> ()
      | _, None -> Alcotest.failf "byte %d bit %d: run ended clean" byte bit
    done
  done

(* ------------------------------------------------------------------ *)
(* Typed storage faults                                                *)
(* ------------------------------------------------------------------ *)

let test_disk_transient_retry () =
  let env = S.Env.create () in
  let disk = S.Disk.create ~env ~page_size:128 in
  let plan =
    Plan.create ~seed:5
      [
        {
          Plan.site = Fault.Disk_read;
          kind = Fault.Io_transient { failures = 2 };
          trigger = Plan.On_op 1;
        };
      ]
  in
  S.Disk.arm disk plan;
  let pid = S.Disk.alloc disk in
  let b = Bytes.make 128 'a' in
  S.Disk.write disk ~mode:S.Disk.Seq pid b;
  let got = S.Disk.read disk ~mode:S.Disk.Rand pid in
  checkb "data intact after transient errors" true (Bytes.equal b got);
  let t = Plan.tally plan in
  checkb "retries counted" true (t.Fault.retried >= 2);
  checki "nothing unrecoverable" 0 t.Fault.unrecoverable

(* The device retry curve: deterministic torture expectations depend on
   these exact waits, so they are pinned here rather than read back from
   the policy that produces them. *)
let test_retry_curve () =
  let exact = Alcotest.float 0.0 in
  Alcotest.(check (list exact))
    "1, 2, 3 ms" [ 1e-3; 2e-3; 3e-3 ]
    (List.map (fun attempt -> Plan.retry_backoff ~attempt) [ 1; 2; 3 ]);
  checki "max_io_retries" 3 Plan.max_io_retries;
  checkb "attempt 0 raises" true
    (match Plan.retry_backoff ~attempt:0 with
    | _ -> false
    | exception Invalid_argument _ -> true);
  let plan = Plan.create [] in
  Plan.ride_transient plan ~site:"disk.read" ~failures:2
    ~attempt:(fun ~attempt:_ ~backoff:_ -> ());
  let t = Plan.tally plan in
  checki "two retries" 2 t.Fault.retried;
  Alcotest.check exact "3 ms of backoff recorded" 3e-3 t.Fault.retry_backoff

(* Neither page was ever faulted, so the disk holds no sum for either:
   the flip is found against the stored image itself. *)
let test_disk_bitflip_read_repaired () =
  let env = S.Env.create () in
  let disk = S.Disk.create ~env ~page_size:128 in
  let plan =
    Plan.create ~seed:9
      [
        {
          Plan.site = Fault.Disk_read;
          kind = Fault.Bit_flip_read;
          trigger = Plan.Every 1;
        };
      ]
  in
  S.Disk.arm disk plan;
  let pid = S.Disk.alloc disk in
  let b = Bytes.make 128 'z' in
  S.Disk.write disk ~mode:S.Disk.Seq pid b;
  let got = S.Disk.read disk ~mode:S.Disk.Rand pid in
  checkb "reread returned clean data" true (Bytes.equal b got);
  let fresh = S.Disk.alloc disk in
  let got = S.Disk.read disk ~mode:S.Disk.Rand fresh in
  checkb "never-written page reads back zeroed" true
    (Bytes.equal (Bytes.make 128 '\000') got);
  let t = Plan.tally plan in
  checki "injected" 2 t.Fault.injected;
  checki "detected" 2 t.Fault.detected;
  checki "repaired" 2 t.Fault.repaired

(* A charged scan walks each stored page where it lies while no plan is
   armed, and the checksum-verified copy once one is: an in-flight flip
   is then detected and repaired, and the tuples come back as written.
   The relation's pages were all spilled from one reused tail page. *)
let test_relation_scan_in_place () =
  let env = S.Env.create () in
  let disk = S.Disk.create ~env ~page_size:128 in
  let schema =
    S.Schema.create ~key:"k" [ S.Schema.column "k" S.Schema.Int; S.Schema.column "v" S.Schema.Int ]
  in
  let rel = S.Relation.create ~disk ~name:"t" ~schema in
  let want = List.init 50 (fun i -> S.Tuple.encode schema [ S.Tuple.VInt i; S.Tuple.VInt (i * i) ]) in
  List.iter (S.Relation.append rel) want;
  S.Relation.seal rel;
  let npages = S.Relation.npages rel in
  checki "seven tuples a page" 8 npages;
  let scan () =
    let got = ref [] in
    S.Relation.iter_tuples rel (fun t ->
        got := Bytes.copy t :: !got;
        (* A scan hands out copies: this must not reach the disk. *)
        Bytes.fill t 0 (Bytes.length t) '\255');
    List.rev !got
  in
  let reads () = env.S.Env.counters.S.Counters.seq_reads in
  let r0 = reads () in
  Alcotest.(check (list bytes)) "unarmed scan reads back intact" want (scan ());
  checki "one read a page" npages (reads () - r0);
  Alcotest.(check (list bytes)) "stored pages unchanged" want (scan ());
  let plan =
    Plan.create ~seed:3
      [ { Plan.site = Fault.Disk_read; kind = Fault.Bit_flip_read; trigger = Plan.Every 1 } ]
  in
  S.Disk.arm disk plan;
  Alcotest.(check (list bytes)) "armed scan returns the intended tuples" want (scan ());
  let t = Plan.tally plan in
  checki "each page flipped" npages t.Fault.injected;
  checki "each flip detected" npages t.Fault.detected;
  checki "each flip repaired" npages t.Fault.repaired;
  checki "nothing unrecoverable" 0 t.Fault.unrecoverable

let test_disk_clean_rewrite_of_torn_page () =
  let env = S.Env.create () in
  let disk = S.Disk.create ~env ~page_size:128 in
  let plan =
    Plan.create ~seed:4
      [
        {
          Plan.site = Fault.Disk_write;
          kind = Fault.Torn_write;
          trigger = Plan.On_op 1;
        };
      ]
  in
  S.Disk.arm disk plan;
  let pid = S.Disk.alloc disk in
  S.Disk.write disk ~mode:S.Disk.Seq pid (Bytes.make 128 'a');
  checkb "first write torn" false
    (Bytes.equal (Bytes.make 128 'a') (S.Disk.read_nocharge disk pid));
  let b = Bytes.make 128 'b' in
  S.Disk.write disk ~mode:S.Disk.Seq pid b;
  checkb "clean rewrite reads back" true
    (Bytes.equal b (S.Disk.read disk ~mode:S.Disk.Rand pid));
  let events = Plan.event_counts plan in
  checkb "no checksum mismatch (FAULT002)" false
    (List.mem_assoc "FAULT002" events);
  checkb "nothing unrecoverable (FAULT011)" false
    (List.mem_assoc "FAULT011" events)

let test_disk_armed_unknown_page () =
  let env = S.Env.create () in
  let disk = S.Disk.create ~env ~page_size:128 in
  S.Disk.arm disk
    (Plan.create
       [
         {
           Plan.site = Fault.Disk_read;
           kind = Fault.Bit_flip_read;
           trigger = Plan.Every 1;
         };
       ]);
  let code =
    match S.Disk.read disk ~mode:S.Disk.Rand 42 with
    | _ -> "none"
    | exception Fault.Io_error e -> e.Fault.code
  in
  Alcotest.(check string) "typed unknown-page error" "FAULT005" code;
  checki "one read charged" 1 env.S.Env.counters.S.Counters.rand_reads

(* Random page traffic under each disk-retargeted [of_spec] atom: a read
   returns the image last meant for the page, or FAULT011 when (and only
   when) the stored image is not that one. *)
type disk_op =
  | Alloc
  | Write of int * int
  | Write_nocharge of int * int
  | Read of int
  | Free of int

let on_disk (r : Plan.rule) =
  match r.Plan.site with
  | Fault.Log_write -> { r with Plan.site = Fault.Disk_write }
  | Fault.Log_read -> { r with Plan.site = Fault.Disk_read }
  | _ -> r

let disk_atoms = [ "torn-tail"; "bitflip"; "io-error"; "media" ]

let gen_disk_op =
  QCheck.Gen.(
    frequency
      [
        (2, return Alloc);
        (3, map2 (fun i v -> Write (i, v)) nat nat);
        (1, map2 (fun i v -> Write_nocharge (i, v)) nat nat);
        (4, map (fun i -> Read i) nat);
        (1, map (fun i -> Free i) nat);
      ])

let qcheck_disk_reads_intended_image =
  QCheck.Test.make ~name:"reads return the intended image or FAULT011"
    ~count:200
    QCheck.(
      make
        Gen.(
          triple (int_bound 1000)
            (list_size (int_range 1 4) (oneofl disk_atoms))
            (list_size (int_range 1 60) gen_disk_op)))
    (fun (seed, atoms, ops) ->
      let page_size = 64 in
      let rules =
        List.concat_map
          (fun a ->
            match Plan.of_spec a with
            | Ok rules -> List.map on_disk rules
            | Error e -> failwith e)
          atoms
      in
      let disk = S.Disk.create ~env:(S.Env.create ()) ~page_size in
      S.Disk.arm disk (Plan.create ~seed rules);
      let live = ref [] in
      let intended = Hashtbl.create 16 in
      let pick i = List.nth !live (i mod List.length !live) in
      let image v = Bytes.init page_size (fun j -> Char.chr ((v + (7 * j)) land 255)) in
      List.for_all
        (fun op ->
          match (op, !live) with
          | Alloc, _ ->
            let pid = S.Disk.alloc disk in
            live := pid :: !live;
            Hashtbl.replace intended pid (Bytes.make page_size '\000');
            true
          | (Write _ | Write_nocharge _ | Read _ | Free _), [] -> true
          | Write (i, v), _ ->
            let pid = pick i in
            S.Disk.write disk ~mode:S.Disk.Seq pid (image v);
            Hashtbl.replace intended pid (image v);
            true
          | Write_nocharge (i, v), _ ->
            let pid = pick i in
            S.Disk.write_nocharge disk pid (image v);
            Hashtbl.replace intended pid (image v);
            true
          | Free i, _ ->
            let pid = pick i in
            S.Disk.free disk pid;
            live := List.filter (( <> ) pid) !live;
            Hashtbl.remove intended pid;
            true
          | Read i, _ -> (
            let pid = pick i in
            let want = Hashtbl.find intended pid in
            match S.Disk.read disk ~mode:S.Disk.Rand pid with
            | got -> Bytes.equal got want
            | exception Fault.Unrecoverable { Fault.code = "FAULT011"; _ } ->
              not (Bytes.equal (S.Disk.read_nocharge disk pid) want)))
        ops)

let test_pool_rot_scrubbed () =
  let env = S.Env.create () in
  let disk = S.Disk.create ~env ~page_size:128 in
  let pid = S.Disk.alloc disk in
  let b = Bytes.make 128 'q' in
  S.Disk.write disk ~mode:S.Disk.Seq pid b;
  let plan =
    Plan.create ~seed:3
      [
        {
          Plan.site = Fault.Pool_frame;
          kind = Fault.Bit_flip_rest;
          trigger = Plan.On_op 1;
        };
      ]
  in
  S.Disk.arm disk plan;
  let pool = S.Buffer_pool.create ~disk ~capacity:4 S.Buffer_pool.Lru in
  ignore (S.Buffer_pool.get pool pid);
  (* The hit path draws the Pool_frame site: the resident clean frame
     rots in memory. *)
  let rotted = S.Buffer_pool.get pool pid in
  checkb "frame rotted in memory" true (not (Bytes.equal b rotted));
  checki "scrub repaired it" 1 (S.Buffer_pool.scrub pool);
  checkb "clean after scrub" true
    (Bytes.equal b (S.Buffer_pool.get pool pid))

let test_stable_droop_drops_newest () =
  let sm = R.Stable_memory.create ~capacity_bytes:4096 in
  let batch i =
    [ L.Begin { txn = i; lsn = (2 * i) + 1 };
      L.Commit { txn = i; lsn = (2 * i) + 2 } ]
  in
  List.iter
    (fun i -> assert (R.Stable_memory.put_records sm (batch i) ~bytes:40))
    [ 1; 2; 3 ];
  let kept, lost = R.Stable_memory.records_dropping_newest sm ~batches:1 in
  checki "two batches kept" 4 (List.length kept);
  checki "newest batch records lost" 2 lost;
  checkb "oldest survive in order" true (kept = batch 1 @ batch 2)

(* A crash fixes the log for good: the prefix a torn page left is what
   a later crash finds too, torn no further, and a batch a battery droop
   lost never reaches the disk at a later flush. *)
let test_crash_losses_stay_lost () =
  let plan =
    Plan.create ~seed:4
      [ { Plan.site = Fault.Log_write; kind = Fault.Torn_write; trigger = Plan.Always } ]
  in
  let d = R.Log_device.create ~faults:plan ~clock:(S.Sim_clock.create ()) () in
  let bytes =
    List.fold_left (fun a r -> a + L.size_bytes ~compressed:false r) 0 sample_records
  in
  let done_at = R.Log_device.write_page d ~at:0.0 sample_records ~bytes in
  let torn = R.Log_device.crash d ~at:(done_at /. 2.0) in
  checki "one tear" 1 (Plan.tally plan).Fault.injected;
  checkb "a proper prefix survives" true
    (match torn with
    | [ (_, rs) ] -> rs <> [] && List.length rs < List.length sample_records
    | _ -> false);
  checkb "the prefix is what survives later" true
    (R.Log_device.surviving_pages d ~at:(done_at +. 1.0) = torn
    && R.Log_device.durable_pages d ~at:(done_at +. 1.0) = torn);
  checki "torn once only" 1 (Plan.tally plan).Fault.injected;
  let droop =
    Plan.create ~seed:1
      [ { Plan.site = Fault.Stable_crash; kind = Fault.Battery_droop { batches = 1 };
          trigger = Plan.Always } ]
  in
  let db =
    Mmdb.Txn_db.create
      ~strategy:(R.Wal.Stable { devices = 1; capacity_bytes = 65536; compressed = false })
      ~nrecords:4 ~faults:droop ()
  in
  let first = Mmdb.Txn_db.transact db [ (0, 5); (1, -5) ] in
  Mmdb.Txn_db.advance db 1e-3;
  ignore (Mmdb.Txn_db.transact db [ (2, 7); (3, -7) ]);
  Mmdb.Txn_db.crash db;
  ignore (Mmdb.Txn_db.recover db);
  checki "drooped transfer lost" 0 (Mmdb.Txn_db.balance db 2);
  Mmdb.Txn_db.advance db 1.0;
  Mmdb.Txn_db.flush db;
  Alcotest.(check (list int)) "a flush does not bring it back"
    [ first.Mmdb.Txn_db.txn_id ] (Mmdb.Txn_db.committed_txns db)

let test_code_catalogue () =
  let codes = List.map fst Fault.code_catalogue in
  checki "twelve codes" 12 (List.length codes);
  checki "unique" (List.length codes)
    (List.length (List.sort_uniq compare codes));
  List.iter
    (fun c -> checkb c true (List.mem c codes))
    [ "FAULT001"; "FAULT007"; "FAULT011"; "FAULT012" ]

(* ------------------------------------------------------------------ *)
(* End-to-end torn-tail recovery                                       *)
(* ------------------------------------------------------------------ *)

let torn_cfg =
  {
    R.Recovery_manager.default_config with
    R.Recovery_manager.nrecords = 64;
    records_per_page = 8;
    updates_per_txn = 4;
    n_txns = 48;
    checkpoint_every = Some 16;
    strategy = R.Wal.Group_commit;
    faults =
      (match Plan.of_spec "torn-tail" with Ok r -> r | Error m -> failwith m);
    seed = 7;
  }

(* The first page-write window of a probe run: crash instants inside it
   tear that page. *)
let first_span () =
  let probe = R.Recovery_manager.run torn_cfg in
  match probe.R.Recovery_manager.page_spans with
  | (s, c) :: _ -> (s, c)
  | [] -> Alcotest.fail "probe wrote no log pages"

let test_torn_tail_mid_write () =
  let s, c = first_span () in
  let o =
    R.Recovery_manager.run
      { torn_cfg with R.Recovery_manager.crash_at = Some ((s +. c) /. 2.0) }
  in
  checkb "torn write injected" true
    (List.mem_assoc "FAULT001" o.R.Recovery_manager.fault_events);
  checkb "consistent" true o.R.Recovery_manager.consistent;
  checkb "money conserved" true o.R.Recovery_manager.money_conserved;
  checkb "no acknowledged commit lost" true o.R.Recovery_manager.durability_ok;
  checkb "durable log audits clean" true
    (V.Log_check.ok ~complete:false o.R.Recovery_manager.durable_log)

let test_torn_tail_every_point_recoverable () =
  (* Sweep the tear across the whole first write window: every cut must
     truncate at a record boundary and recover cleanly. *)
  let s, c = first_span () in
  for i = 0 to 19 do
    let at = s +. ((c -. s) *. (float_of_int i +. 0.5) /. 20.0) in
    let o =
      R.Recovery_manager.run
        { torn_cfg with R.Recovery_manager.crash_at = Some at }
    in
    checkb
      (Printf.sprintf "point %d consistent" i)
      true o.R.Recovery_manager.consistent;
    checkb
      (Printf.sprintf "point %d money" i)
      true o.R.Recovery_manager.money_conserved;
    checkb
      (Printf.sprintf "point %d durability" i)
      true o.R.Recovery_manager.durability_ok;
    checkb
      (Printf.sprintf "point %d audit" i)
      true
      (V.Log_check.ok ~complete:false o.R.Recovery_manager.durable_log)
  done

(* ------------------------------------------------------------------ *)
(* Txn_db recovery reads what survives the media                       *)
(* ------------------------------------------------------------------ *)

(* With the [media] spec armed, at-rest damage truncates durable log
   pages: recovery must replay only what survives (and demote what is
   left incomplete), not every record the device once completed.
   [media] is typically unrecoverable, so the test asserts the
   exclusion and its detection, not a balanced sum. *)
let test_txn_db_media_recovery () =
  let rules =
    match Plan.of_spec "media" with Ok r -> r | Error m -> failwith m
  in
  let plan = Plan.create ~seed:7 rules in
  let db = Mmdb.Txn_db.create ~faults:plan ~nrecords:50 () in
  for i = 0 to 59 do
    ignore
      (Mmdb.Txn_db.transact db [ (i mod 50, 5); (((7 * i) + 3) mod 50, -5) ]);
    Mmdb.Txn_db.advance db 1e-3
  done;
  Mmdb.Txn_db.flush db;
  Mmdb.Txn_db.crash db;
  ignore (Mmdb.Txn_db.recover db);
  let committed = Mmdb.Txn_db.committed_txns db in
  let events = Plan.event_counts plan in
  checki "transactions lost with their damaged pages" 58
    (List.length committed);
  checkb "recovery detected the damage" true
    ((Plan.tally plan).Fault.detected > 0);
  checkb "log damage noted (FAULT002)" true
    (List.mem_assoc "FAULT002" events);
  checkb "truncation noted (FAULT011)" true (List.mem_assoc "FAULT011" events)

(* ------------------------------------------------------------------ *)
(* Torture sweep                                                       *)
(* ------------------------------------------------------------------ *)

module RM = R.Recovery_manager

let torture ~seed ~count = V.Torture.run ~seed ~count ()

let test_torture_seeds_clean () =
  List.iter
    (fun seed ->
      let r = torture ~seed ~count:500 in
      checkb (Printf.sprintf "seed %d no silent corruption" seed) true
        (V.Torture.ok r);
      checki (Printf.sprintf "seed %d ran every case" seed) 500
        r.V.Torture.runs;
      checkb
        (Printf.sprintf "seed %d crashed recovery itself" seed)
        true
        (r.V.Torture.restart_runs > 0))
    [ 7; 11; 13 ]

let test_torture_deterministic () =
  List.iter
    (fun seed ->
      let a = torture ~seed ~count:100 and b = torture ~seed ~count:100 in
      checkb (Printf.sprintf "seed %d report repeats" seed) true (a = b))
    [ 7; 11; 13 ]

(* The gate's run (seed 7 at the default count, as [check torture]
   makes it), and a reduced run at seed 11. *)
let test_torture_full_sweep () =
  checkb "seed 7 default count: no silent corruption" true
    (V.Torture.ok (V.Torture.run ~seed:7 ()));
  checkb "seed 11 reduced count: no silent corruption" true
    (V.Torture.ok (torture ~seed:11 ~count:400))

let test_torture_flags_unrecoverable_loss () =
  (* Battery droop on the stable strategy and at-rest media damage lose
     acknowledged commits: the property must count those runs as
     flagged (reported), never silent. *)
  let r = torture ~seed:7 ~count:500 in
  checkb "no silent corruption" true (V.Torture.ok r);
  checkb "losses were exercised and flagged" true (r.V.Torture.flagged > 0);
  checkb "FAULT007 reported" true
    (List.mem_assoc "FAULT007" r.V.Torture.events)

(* A run over no cases would report "ok" having checked nothing. *)
let test_torture_rejects_empty_sweep () =
  Alcotest.check_raises "count 0" (Invalid_argument "Torture.run: count < 1")
    (fun () -> ignore (torture ~seed:7 ~count:0))

(* The torture workload shape, for replaying shrunk counterexamples. *)
let torture_config ~txns strategy spec =
  let faults =
    match Plan.of_spec spec with Ok r -> r | Error m -> Alcotest.fail m
  in
  {
    RM.default_config with
    RM.nrecords = 64;
    records_per_page = 8;
    updates_per_txn = 4;
    n_txns = txns;
    checkpoint_every = Some (max 4 (txns / 3));
    strategy;
    faults;
  }

(* Shrunk by the property: with the stable log drained behind a busy
   device (page writes spanning 3-13, 7-17 and 13-23 ms), the drained
   batches had left stable memory when queued but counted as durable only
   from the start of their page write.  A crash in between found the
   records nowhere: 4 of 12 acknowledged commits lost with a quiet
   fault plane, and at 13 transactions a diverged state. *)
let test_stable_drain_durable_when_queued () =
  let stable =
    R.Wal.Stable { devices = 2; capacity_bytes = 8192; compressed = true }
  in
  List.iter
    (fun (txns, crash_at) ->
      let o =
        RM.run
          { (torture_config ~txns stable "none") with
            RM.crash_at = Some crash_at }
      in
      let msg what =
        Printf.sprintf "%d txns, crash at %g: %s" txns crash_at what
      in
      checki (msg "acknowledged") txns o.RM.acked_committed;
      checki (msg "acknowledged lost") 0 o.RM.acked_lost;
      checkb (msg "consistent") true o.RM.consistent;
      checki (msg "no fault injected") 0 (Fault.tally_total o.RM.fault_tally))
    [ (12, 0.0115); (13, 0.0125) ]

(* Shrunk by the property with the undo floor ([resolved_lsn]) dropped:
   a torn first page leaves the only transaction a loser, recovery
   undoes its command record, writes the page back and crashes after 9
   steps.  Without the floor the restarted recovery subtracts the
   deltas a second time. *)
let test_restart_keeps_undo_floor () =
  let o =
    RM.run
      { (torture_config ~txns:1 R.Wal.Conventional "torn-tail,torn-tail") with
        RM.crash_at = Some 1e-6;
        replay =
          { RM.default_replay with
            RM.logging = RM.Command_logging;
            crash_steps = Some 9 } }
  in
  checki "recovery restarted" 2 o.RM.recovery_attempts;
  checkb "consistent" true o.RM.consistent;
  checkb "money conserved" true o.RM.money_conserved

let () =
  Alcotest.run "mmdb fault"
    [
      ( "checksum",
        [
          Alcotest.test_case "crc32 vector" `Quick test_crc32_vector;
          Alcotest.test_case "page checksum" `Quick test_page_checksum;
        ] );
      ( "log-wire",
        [
          Alcotest.test_case "roundtrip" `Quick test_encode_roundtrip;
          Alcotest.test_case "roundtrip compressed" `Quick
            test_encode_roundtrip_compressed;
          Alcotest.test_case "any bit flip detected" `Quick
            test_decode_detects_any_bit_flip;
          Alcotest.test_case "every torn cut recovers a valid prefix" `Quick
            test_decode_run_every_cut;
          Alcotest.test_case "any bit flip in a page detected" `Quick
            test_decode_run_detects_any_bit_flip;
        ] );
      ( "storage-faults",
        [
          Alcotest.test_case "transient I/O retried" `Quick
            test_disk_transient_retry;
          Alcotest.test_case "device retry curve" `Quick test_retry_curve;
          Alcotest.test_case "charged scan in place" `Quick
            test_relation_scan_in_place;
          Alcotest.test_case "read bit flip repaired by reread" `Quick
            test_disk_bitflip_read_repaired;
          Alcotest.test_case "clean rewrite of a torn page reads clean" `Quick
            test_disk_clean_rewrite_of_torn_page;
          Alcotest.test_case "armed read of unknown page" `Quick
            test_disk_armed_unknown_page;
          QCheck_alcotest.to_alcotest qcheck_disk_reads_intended_image;
          Alcotest.test_case "pool rot found by scrub" `Quick
            test_pool_rot_scrubbed;
          Alcotest.test_case "battery droop drops newest batches" `Quick
            test_stable_droop_drops_newest;
          Alcotest.test_case "crash losses stay lost" `Quick
            test_crash_losses_stay_lost;
          Alcotest.test_case "code catalogue" `Quick test_code_catalogue;
        ] );
      ( "torn-tail",
        [
          Alcotest.test_case "mid-page-write crash recovers" `Quick
            test_torn_tail_mid_write;
          Alcotest.test_case "every tear point recovers" `Quick
            test_torn_tail_every_point_recoverable;
        ] );
      ( "txn-db",
        [
          Alcotest.test_case "media damage excluded from recovery" `Quick
            test_txn_db_media_recovery;
        ] );
      ( "torture",
        [
          Alcotest.test_case "seeds 7/11/13 clean" `Quick
            test_torture_seeds_clean;
          Alcotest.test_case "deterministic" `Quick test_torture_deterministic;
          Alcotest.test_case "full sweep seed 7, reduced seed 11" `Quick
            test_torture_full_sweep;
          Alcotest.test_case "unrecoverable loss is flagged" `Quick
            test_torture_flags_unrecoverable_loss;
          Alcotest.test_case "empty sweep rejected" `Quick
            test_torture_rejects_empty_sweep;
          Alcotest.test_case "stable drain durable when queued" `Quick
            test_stable_drain_durable_when_queued;
          Alcotest.test_case "restart crash keeps the undo floor" `Quick
            test_restart_keeps_undo_floor;
        ] );
    ]
