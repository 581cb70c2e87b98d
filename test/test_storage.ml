(* Tests for Mmdb_storage: pages, tuples, schemas, disk, buffer pool,
   relations, environment charging. *)

module S = Mmdb_storage
module U = Mmdb_util

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

let feq ?(eps = 1e-12) name a b =
  checkb (name ^ " ~=") true (Float.abs (a -. b) <= eps)

(* Shared schema: 8-byte int key, 8-byte int payload, 24-byte string. *)
let schema () =
  S.Schema.create ~key:"k"
    [
      S.Schema.column "k" S.Schema.Int;
      S.Schema.column "v" S.Schema.Int;
      S.Schema.column ~width:24 "s" S.Schema.Fixed_string;
    ]

let mk_tuple sch k v s = S.Tuple.encode sch [ S.Tuple.VInt k; S.Tuple.VInt v; S.Tuple.VStr s ]

(* ------------------------------------------------------------------ *)
(* Cost & clock & counters                                             *)
(* ------------------------------------------------------------------ *)

let test_cost_table2 () =
  let c = S.Cost.table2 in
  feq "comp" 3e-6 c.S.Cost.comp;
  feq "hash" 9e-6 c.S.Cost.hash;
  feq "move" 20e-6 c.S.Cost.move;
  feq "swap" 60e-6 c.S.Cost.swap;
  feq "io_seq" 10e-3 c.S.Cost.io_seq;
  feq "io_rand" 25e-3 c.S.Cost.io_rand;
  feq "fudge" 1.2 c.S.Cost.fudge

let test_clock () =
  let c = S.Sim_clock.create () in
  feq "starts at 0" 0.0 (S.Sim_clock.now c);
  S.Sim_clock.advance c 1.5;
  feq "advance" 1.5 (S.Sim_clock.now c);
  S.Sim_clock.advance_to c 1.0;
  feq "advance_to past is noop" 1.5 (S.Sim_clock.now c);
  S.Sim_clock.advance_to c 2.0;
  feq "advance_to future" 2.0 (S.Sim_clock.now c)

let test_clock_negative () =
  let c = S.Sim_clock.create () in
  Alcotest.check_raises "negative"
    (Invalid_argument "Sim_clock.advance: negative dt") (fun () ->
      S.Sim_clock.advance c (-1.0))

let test_env_charging () =
  let env = S.Env.create () in
  S.Env.charge_comp env;
  S.Env.charge_comps env 9;
  S.Env.charge_hash env;
  S.Env.charge_move env;
  S.Env.charge_swap env;
  S.Env.charge_io_seq_read env;
  S.Env.charge_io_rand_write env;
  let c = env.S.Env.counters in
  checki "comparisons" 10 c.S.Counters.comparisons;
  checki "hashes" 1 c.S.Counters.hashes;
  checki "moves" 1 c.S.Counters.moves;
  checki "swaps" 1 c.S.Counters.swaps;
  checki "seq reads" 1 c.S.Counters.seq_reads;
  checki "rand writes" 1 c.S.Counters.rand_writes;
  let expect =
    (10.0 *. 3e-6) +. 9e-6 +. 20e-6 +. 60e-6 +. 10e-3 +. 25e-3
  in
  feq ~eps:1e-9 "clock total" expect (S.Env.elapsed env)

let test_counters_diff () =
  let env = S.Env.create () in
  S.Env.charge_comp env;
  let before = S.Counters.snapshot env.S.Env.counters in
  S.Env.charge_comp env;
  S.Env.charge_hash env;
  let d = S.Counters.diff ~after:env.S.Env.counters ~before in
  checki "comp delta" 1 d.S.Counters.comparisons;
  checki "hash delta" 1 d.S.Counters.hashes;
  checki "total io" 0 (S.Counters.total_io d)

(* ------------------------------------------------------------------ *)
(* Page                                                                *)
(* ------------------------------------------------------------------ *)

let test_page_capacity () =
  checki "4096/40" 102 (S.Page.capacity ~page_size:4096 ~tuple_width:40);
  checki "4096/4094" 1 (S.Page.capacity ~page_size:4096 ~tuple_width:4094);
  Alcotest.check_raises "too wide"
    (Invalid_argument "Page.capacity: tuple wider than page") (fun () ->
      ignore (S.Page.capacity ~page_size:64 ~tuple_width:100))

let test_page_append_get () =
  let p = S.Page.create 128 in
  checki "empty" 0 (S.Page.count p);
  let t1 = Bytes.of_string "0123456789" in
  let t2 = Bytes.of_string "abcdefghij" in
  checkb "append 1" true (S.Page.append p ~tuple_width:10 t1);
  checkb "append 2" true (S.Page.append p ~tuple_width:10 t2);
  checki "count 2" 2 (S.Page.count p);
  checks "get 0" "0123456789" (Bytes.to_string (S.Page.get p ~tuple_width:10 0));
  checks "get 1" "abcdefghij" (Bytes.to_string (S.Page.get p ~tuple_width:10 1))

let test_page_fills_up () =
  let p = S.Page.create 32 in
  (* capacity = (32-2)/10 = 3 *)
  let tup = Bytes.make 10 'x' in
  checkb "1" true (S.Page.append p ~tuple_width:10 tup);
  checkb "2" true (S.Page.append p ~tuple_width:10 tup);
  checkb "3" true (S.Page.append p ~tuple_width:10 tup);
  checkb "full" false (S.Page.append p ~tuple_width:10 tup);
  checki "count stays 3" 3 (S.Page.count p)

let test_page_iter () =
  let p = S.Page.create 64 in
  ignore (S.Page.append p ~tuple_width:4 (Bytes.of_string "aaaa"));
  ignore (S.Page.append p ~tuple_width:4 (Bytes.of_string "bbbb"));
  let seen = ref [] in
  S.Page.iter p ~tuple_width:4 (fun i tup ->
      seen := (i, Bytes.to_string tup) :: !seen);
  Alcotest.(check (list (pair int string)))
    "iter order"
    [ (0, "aaaa"); (1, "bbbb") ]
    (List.rev !seen)

let test_page_bounds () =
  let p = S.Page.create 64 in
  Alcotest.check_raises "get oob"
    (Invalid_argument "Page.get: slot out of bounds") (fun () ->
      ignore (S.Page.get p ~tuple_width:4 0))

(* ------------------------------------------------------------------ *)
(* Schema                                                              *)
(* ------------------------------------------------------------------ *)

let test_schema_layout () =
  let sch = schema () in
  checki "width" 40 (S.Schema.tuple_width sch);
  checki "key index" 0 (S.Schema.key_index sch);
  checki "key width" 8 (S.Schema.key_width sch);
  checki "key offset" 0 (S.Schema.key_offset sch);
  checki "offset v" 8 (S.Schema.offset sch 1);
  checki "offset s" 16 (S.Schema.offset sch 2);
  checki "col index" 2 (S.Schema.column_index sch "s")

let test_schema_with_key () =
  let sch = schema () in
  let sch2 = S.Schema.with_key sch "v" in
  checki "new key index" 1 (S.Schema.key_index sch2);
  checki "new key offset" 8 (S.Schema.key_offset sch2);
  (* Original unchanged. *)
  checki "orig key" 0 (S.Schema.key_index sch)

let test_schema_errors () =
  Alcotest.check_raises "dup column"
    (Invalid_argument "Schema.create: duplicate column x") (fun () ->
      ignore
        (S.Schema.create ~key:"x"
           [ S.Schema.column "x" S.Schema.Int; S.Schema.column "x" S.Schema.Int ]));
  Alcotest.check_raises "bad key"
    (Invalid_argument "Schema.create: no key column nope") (fun () ->
      ignore (S.Schema.create ~key:"nope" [ S.Schema.column "x" S.Schema.Int ]));
  Alcotest.check_raises "string needs width"
    (Invalid_argument "Schema.column: Fixed_string requires an explicit width")
    (fun () -> ignore (S.Schema.column "s" S.Schema.Fixed_string))

(* ------------------------------------------------------------------ *)
(* Tuple                                                               *)
(* ------------------------------------------------------------------ *)

let test_tuple_roundtrip () =
  let sch = schema () in
  let tup = mk_tuple sch 42 (-7) "hello" in
  (match S.Tuple.decode sch tup with
  | [ S.Tuple.VInt 42; S.Tuple.VInt -7; S.Tuple.VStr "hello" ] -> ()
  | _ -> Alcotest.fail "roundtrip mismatch");
  checki "get_int k" 42 (S.Tuple.get_int sch tup 0);
  checki "get_int v" (-7) (S.Tuple.get_int sch tup 1);
  checks "get_str" "hello" (S.Tuple.get_str sch tup 2)

let test_tuple_set_int () =
  let sch = schema () in
  let tup = mk_tuple sch 1 2 "x" in
  S.Tuple.set_int sch tup 1 999;
  checki "updated" 999 (S.Tuple.get_int sch tup 1);
  checki "key untouched" 1 (S.Tuple.get_int sch tup 0)

let test_tuple_key_compare () =
  let sch = schema () in
  let t1 = mk_tuple sch 5 0 "" and t2 = mk_tuple sch 10 0 "" in
  checkb "5 < 10" true (S.Tuple.compare_keys sch t1 t2 < 0);
  checkb "10 > 5" true (S.Tuple.compare_keys sch t2 t1 > 0);
  checkb "eq" true (S.Tuple.compare_keys sch t1 t1 = 0);
  let key = S.Tuple.encode_int_key sch 7 in
  checkb "5 < key 7" true (S.Tuple.compare_key_to sch t1 key < 0);
  checkb "10 > key 7" true (S.Tuple.compare_key_to sch t2 key > 0)

let test_tuple_negative_ordering () =
  let sch = schema () in
  let tn = mk_tuple sch (-100) 0 "" and tz = mk_tuple sch 0 0 "" in
  checkb "-100 < 0" true (S.Tuple.compare_keys sch tn tz < 0)

let qcheck_int_encoding_order =
  QCheck.Test.make ~name:"int key encoding preserves order" ~count:500
    QCheck.(pair int int)
    (fun (a, b) ->
      let sch = schema () in
      let ta = mk_tuple sch a 0 "" and tb = mk_tuple sch b 0 "" in
      let c = S.Tuple.compare_keys sch ta tb in
      (c < 0) = (a < b) && (c = 0) = (a = b))

let qcheck_narrow_int_roundtrip =
  QCheck.Test.make ~name:"narrow int columns roundtrip" ~count:500
    QCheck.(int_range (-32768) 32767)
    (fun v ->
      let sch =
        S.Schema.create ~key:"k" [ S.Schema.column ~width:2 "k" S.Schema.Int ]
      in
      let tup = S.Tuple.encode sch [ S.Tuple.VInt v ] in
      S.Tuple.get_int sch tup 0 = v)

let test_narrow_int_out_of_range () =
  let sch =
    S.Schema.create ~key:"k" [ S.Schema.column ~width:2 "k" S.Schema.Int ]
  in
  let lo, hi = S.Tuple.int_key_range sch in
  checki "lo" (-32768) lo;
  checki "hi" 32767 hi;
  checkb "encode out of range raises" true
    (try
       ignore (S.Tuple.encode sch [ S.Tuple.VInt 40000 ]);
       false
     with Invalid_argument _ -> true)

let test_string_too_long () =
  let sch =
    S.Schema.create ~key:"s"
      [ S.Schema.column ~width:3 "s" S.Schema.Fixed_string ]
  in
  checkb "too long raises" true
    (try
       ignore (S.Tuple.encode sch [ S.Tuple.VStr "abcd" ]);
       false
     with Invalid_argument _ -> true)

let test_hash_key_deterministic () =
  let sch = schema () in
  let t1 = mk_tuple sch 42 0 "" and t2 = mk_tuple sch 42 99 "zzz" in
  checki "same key same hash" (S.Tuple.hash_key sch t1) (S.Tuple.hash_key sch t2);
  let t3 = mk_tuple sch 43 0 "" in
  checkb "diff key diff hash (likely)" true
    (S.Tuple.hash_key sch t1 <> S.Tuple.hash_key sch t3);
  checkb "non-negative" true (S.Tuple.hash_key sch t1 >= 0)

(* ------------------------------------------------------------------ *)
(* Disk                                                                *)
(* ------------------------------------------------------------------ *)

let test_disk_alloc_rw () =
  let env = S.Env.create () in
  let d = S.Disk.create ~env ~page_size:128 in
  let pid = S.Disk.alloc d in
  checki "page count" 1 (S.Disk.page_count d);
  let page = S.Page.create 128 in
  ignore (S.Page.append page ~tuple_width:10 (Bytes.make 10 'q'));
  S.Disk.write d ~mode:S.Disk.Seq pid page;
  let back = S.Disk.read d ~mode:S.Disk.Rand pid in
  checks "roundtrip" (Bytes.to_string page) (Bytes.to_string back);
  checki "seq writes" 1 env.S.Env.counters.S.Counters.seq_writes;
  checki "rand reads" 1 env.S.Env.counters.S.Counters.rand_reads;
  feq ~eps:1e-9 "charged" (10e-3 +. 25e-3) (S.Env.elapsed env)

let test_disk_read_copy_isolated () =
  let env = S.Env.create () in
  let d = S.Disk.create ~env ~page_size:64 in
  let pid = S.Disk.alloc d in
  let back = S.Disk.read_nocharge d pid in
  Bytes.set back 10 'Z';
  let again = S.Disk.read_nocharge d pid in
  checkb "mutation not visible" true (Bytes.get again 10 = '\000')

let test_disk_free () =
  let env = S.Env.create () in
  let d = S.Disk.create ~env ~page_size:64 in
  let pid = S.Disk.alloc d in
  S.Disk.free d pid;
  checki "count 0" 0 (S.Disk.page_count d);
  checkb "read freed raises FAULT005" true
    (try
       ignore (S.Disk.read_nocharge d pid);
       false
     with Mmdb_fault.Fault.Io_error e -> e.Mmdb_fault.Fault.code = "FAULT005")

let test_disk_nocharge () =
  let env = S.Env.create () in
  let d = S.Disk.create ~env ~page_size:64 in
  let pid = S.Disk.alloc d in
  S.Disk.write_nocharge d pid (S.Page.create 64);
  ignore (S.Disk.read_nocharge d pid);
  checki "no io counted" 0 (S.Counters.total_io env.S.Env.counters);
  feq "no time" 0.0 (S.Env.elapsed env)

(* Every fresh page shares one zero page; were its frame pooled when
   such a page is freed or first written, the next write would fill it
   and every fresh page would read that write. *)
let test_disk_zero_page_not_pooled () =
  let env = S.Env.create () in
  let d = S.Disk.create ~env ~page_size:64 in
  let freed = S.Disk.alloc d and written = S.Disk.alloc d in
  S.Disk.free d freed;
  S.Disk.write_nocharge d written (Bytes.make 64 'x');
  let other = S.Disk.alloc d in
  S.Disk.write_nocharge d other (Bytes.make 64 'y');
  S.Disk.write_nocharge d other (Bytes.make 64 'z');
  checks "fresh page reads zeroed" (String.make 64 '\000')
    (Bytes.to_string (S.Disk.read_nocharge d (S.Disk.alloc d)))

let page_of sch ks =
  let p = S.Page.create 128 in
  List.iter (fun k -> assert (S.Page.append p ~tuple_width:40 (mk_tuple sch k 0 ""))) ks;
  p

(* The callback rewrites the page it walks, writes another page (which
   would reuse the walked frame, were it pooled at once), then frees the
   walked page: the walk still reads the image it began on. *)
let test_disk_walk_keeps_its_image () =
  let env = S.Env.create () in
  let d = S.Disk.create ~env ~page_size:128 in
  let sch = schema () in
  let walked = S.Disk.alloc d in
  S.Disk.write_nocharge d walked (page_of sch [ 1; 2; 3 ]);
  let other = S.Disk.alloc d in
  let seen = ref [] in
  S.Disk.iter_nocharge d walked ~tuple_width:40 (fun slot tup ->
      if slot = 0 then begin
        S.Disk.write_nocharge d walked (page_of sch [ 4; 5; 6 ]);
        S.Disk.write_nocharge d other (page_of sch [ 7; 8; 9 ]);
        S.Disk.free d walked;
        S.Disk.write_nocharge d other (page_of sch [ 10; 11; 12 ])
      end;
      seen := S.Tuple.get_int sch tup 0 :: !seen);
  Alcotest.(check (list int)) "walk saw the first image" [ 1; 2; 3 ] (List.rev !seen);
  checks "other page intact" (Bytes.to_string (page_of sch [ 10; 11; 12 ]))
    (Bytes.to_string (S.Disk.read_nocharge d other))

(* Major-heap words [f] allocates (a 4 KiB frame is 514), or [None] when
   a major cycle ended meanwhile and may have emptied the weak frame pool.
   [Gc.counters], as [Gc.quick_stat] does not count direct major
   allocations on OCaml 5.1. *)
let major_words_in_one_cycle f =
  let cycles = (Gc.quick_stat ()).Gc.major_collections in
  Gc.minor ();
  let _, _, before = Gc.counters () in
  f ();
  let _, _, after = Gc.counters () in
  if (Gc.quick_stat ()).Gc.major_collections = cycles then
    Some (int_of_float (after -. before))
  else None

(* Spilling 100 pages after 100 were freed reuses their frames, also
   after a walk that an exception left (frames freed while a walk is
   open wait for it to close). *)
let test_disk_frames_reused () =
  let env = S.Env.create () in
  let d = S.Disk.create ~env ~page_size:4096 in
  let sch = schema () in
  let per_page = S.Page.capacity ~page_size:4096 ~tuple_width:40 in
  let tuples = Array.init (100 * per_page) (fun i -> mk_tuple sch i 0 "") in
  let spill () =
    let r = S.Relation.create ~disk:d ~name:"spill" ~schema:sch in
    Array.iter (S.Relation.append r) tuples;
    S.Relation.seal r;
    r
  in
  let rec measure tries =
    let first = spill () in
    (try S.Relation.iter_tuples_nocharge first (fun _ -> raise Exit) with Exit -> ());
    match
      major_words_in_one_cycle (fun () ->
          S.Relation.free_pages first;
          ignore (spill ()))
    with
    | Some words -> words
    | None when tries > 1 -> measure (tries - 1)
    | None -> Alcotest.fail "a major cycle ended in every try"
  in
  let words = measure 5 in
  checkb (Printf.sprintf "%d major words < 10 frames" words) true (words < 10 * 514)

(* ------------------------------------------------------------------ *)
(* Buffer pool                                                         *)
(* ------------------------------------------------------------------ *)

let pool_setup policy capacity =
  let env = S.Env.create () in
  let d = S.Disk.create ~env ~page_size:64 in
  let pids = Array.init 10 (fun _ -> S.Disk.alloc d) in
  let pool = S.Buffer_pool.create ~disk:d ~capacity policy in
  (env, d, pids, pool)

let test_pool_hit_and_fault () =
  let env, _, pids, pool = pool_setup S.Buffer_pool.Lru 4 in
  ignore (S.Buffer_pool.get pool pids.(0));
  checki "1 fault" 1 env.S.Env.counters.S.Counters.faults;
  ignore (S.Buffer_pool.get pool pids.(0));
  checki "still 1 fault" 1 env.S.Env.counters.S.Counters.faults;
  checki "1 hit" 1 env.S.Env.counters.S.Counters.pool_hits;
  checki "resident" 1 (S.Buffer_pool.resident pool)

let test_pool_capacity_bound () =
  let _, _, pids, pool = pool_setup S.Buffer_pool.Lru 4 in
  Array.iter (fun pid -> ignore (S.Buffer_pool.get pool pid)) pids;
  checkb "bounded" true (S.Buffer_pool.resident pool <= 4)

let test_pool_lru_eviction_order () =
  let env, _, pids, pool = pool_setup S.Buffer_pool.Lru 2 in
  ignore (S.Buffer_pool.get pool pids.(0));
  ignore (S.Buffer_pool.get pool pids.(1));
  ignore (S.Buffer_pool.get pool pids.(0));
  (* touch 0 *)
  ignore (S.Buffer_pool.get pool pids.(2));
  (* evicts 1 *)
  checkb "0 resident" true (S.Buffer_pool.is_resident pool pids.(0));
  checkb "1 evicted" false (S.Buffer_pool.is_resident pool pids.(1));
  let f0 = env.S.Env.counters.S.Counters.faults in
  ignore (S.Buffer_pool.get pool pids.(0));
  checki "no new fault for 0" f0 env.S.Env.counters.S.Counters.faults

let test_pool_random_policy_bounded () =
  let rng = U.Xorshift.create 99 in
  let _, _, pids, pool =
    pool_setup (S.Buffer_pool.Random_replacement rng) 3
  in
  for _ = 1 to 5 do
    Array.iter (fun pid -> ignore (S.Buffer_pool.get pool pid)) pids
  done;
  checkb "bounded" true (S.Buffer_pool.resident pool <= 3)

let test_pool_clock_policy_bounded () =
  let _, _, pids, pool = pool_setup S.Buffer_pool.Clock 3 in
  for _ = 1 to 5 do
    Array.iter (fun pid -> ignore (S.Buffer_pool.get pool pid)) pids
  done;
  checkb "bounded" true (S.Buffer_pool.resident pool <= 3)

(* Paper §2: with random replacement and |M| of S pages resident, the miss
   probability per access is about (1 - |M|/S). *)
let test_pool_random_fault_rate_matches_model () =
  let rng = U.Xorshift.create 7 in
  let env = S.Env.create () in
  let d = S.Disk.create ~env ~page_size:64 in
  let s = 50 in
  let m = 25 in
  let pids = Array.init s (fun _ -> S.Disk.alloc d) in
  let pool =
    S.Buffer_pool.create ~disk:d ~capacity:m (S.Buffer_pool.Random_replacement rng)
  in
  (* Warm up. *)
  let access_rng = U.Xorshift.create 11 in
  for _ = 1 to 2000 do
    ignore (S.Buffer_pool.get pool pids.(U.Xorshift.int access_rng s))
  done;
  let before = env.S.Env.counters.S.Counters.faults in
  let accesses = 20_000 in
  for _ = 1 to accesses do
    ignore (S.Buffer_pool.get pool pids.(U.Xorshift.int access_rng s))
  done;
  let rate =
    float_of_int (env.S.Env.counters.S.Counters.faults - before)
    /. float_of_int accesses
  in
  let expected = 1.0 -. (float_of_int m /. float_of_int s) in
  checkb
    (Printf.sprintf "fault rate %.3f within 15%% of %.3f" rate expected)
    true
    (Float.abs (rate -. expected) < 0.15 *. expected)

(* Property: under any access pattern and policy, the pool never exceeds
   capacity and hits + faults account for every access. *)
let qcheck_pool_accounting =
  QCheck.Test.make ~name:"pool accounting holds for all policies" ~count:60
    QCheck.(
      pair (int_range 0 4)
        (list_of_size Gen.(int_range 1 300) (int_range 0 19)))
    (fun (policy_idx, accesses) ->
      let policy =
        match policy_idx with
        | 0 -> S.Buffer_pool.Random_replacement (U.Xorshift.create 5)
        | 1 -> S.Buffer_pool.Lru
        | 2 -> S.Buffer_pool.Clock
        | 3 -> S.Buffer_pool.Fifo
        | _ -> S.Buffer_pool.Lru_2
      in
      let env = S.Env.create () in
      let d = S.Disk.create ~env ~page_size:64 in
      let pids = Array.init 20 (fun _ -> S.Disk.alloc d) in
      let pool = S.Buffer_pool.create ~disk:d ~capacity:5 policy in
      let ok = ref true in
      List.iter
        (fun i ->
          ignore (S.Buffer_pool.get pool pids.(i));
          if S.Buffer_pool.resident pool > 5 then ok := false)
        accesses;
      let c = env.S.Env.counters in
      !ok
      && c.S.Counters.pool_hits + c.S.Counters.faults = List.length accesses
      && c.S.Counters.rand_reads = c.S.Counters.faults)

(* ------------------------------------------------------------------ *)
(* Relation                                                            *)
(* ------------------------------------------------------------------ *)

let rel_setup ?(page_size = 128) () =
  let env = S.Env.create () in
  let d = S.Disk.create ~env ~page_size in
  (env, d)

let test_relation_append_scan () =
  let _, d = rel_setup () in
  let sch = schema () in
  let r = S.Relation.create ~disk:d ~name:"emp" ~schema:sch in
  for i = 1 to 10 do
    S.Relation.append_nocharge r (mk_tuple sch i (i * 10) "row")
  done;
  checki "ntuples" 10 (S.Relation.ntuples r);
  let seen = ref [] in
  S.Relation.iter_tuples_nocharge r (fun tup ->
      seen := S.Tuple.get_int sch tup 0 :: !seen);
  Alcotest.(check (list int)) "scan order" [1;2;3;4;5;6;7;8;9;10]
    (List.rev !seen)

let test_relation_npages () =
  let _, d = rel_setup ~page_size:128 () in
  let sch = schema () in
  (* 40-byte tuples: (128-2)/40 = 3 per page. *)
  let r = S.Relation.create ~disk:d ~name:"r" ~schema:sch in
  checki "tpp" 3 (S.Relation.tuples_per_page r);
  for i = 1 to 7 do
    S.Relation.append_nocharge r (mk_tuple sch i 0 "")
  done;
  S.Relation.seal r;
  checki "pages" 3 (S.Relation.npages r)

let test_relation_charged_append () =
  let env, d = rel_setup ~page_size:128 () in
  let sch = schema () in
  let r = S.Relation.create ~disk:d ~name:"r" ~schema:sch in
  for i = 1 to 7 do
    S.Relation.append r (mk_tuple sch i 0 "")
  done;
  S.Relation.seal r;
  (* 3 pages -> 3 sequential writes. *)
  checki "seq writes" 3 env.S.Env.counters.S.Counters.seq_writes

let test_relation_charged_scan () =
  let env, d = rel_setup ~page_size:128 () in
  let sch = schema () in
  let tuples = List.init 9 (fun i -> mk_tuple sch i 0 "") in
  let r = S.Relation.of_tuples ~disk:d ~name:"r" ~schema:sch tuples in
  let before = env.S.Env.counters.S.Counters.seq_reads in
  S.Relation.iter_tuples r (fun _ -> ());
  checki "3 seq reads" (before + 3) env.S.Env.counters.S.Counters.seq_reads

let test_relation_append_after_seal () =
  let _, d = rel_setup ~page_size:128 () in
  let sch = schema () in
  let r = S.Relation.create ~disk:d ~name:"r" ~schema:sch in
  S.Relation.append_nocharge r (mk_tuple sch 1 0 "");
  S.Relation.seal r;
  S.Relation.append_nocharge r (mk_tuple sch 2 0 "");
  S.Relation.seal r;
  checki "2 tuples" 2 (S.Relation.ntuples r);
  checki "1 page, refilled after the first seal" 1 (S.Relation.npages r);
  checki "one page on disk" 1 (S.Disk.page_count d);
  let ks = List.map (fun t -> S.Tuple.get_int sch t 0) (S.Relation.to_list r) in
  Alcotest.(check (list int)) "both present" [ 1; 2 ] ks

let test_relation_free_pages () =
  let _, d = rel_setup () in
  let sch = schema () in
  let tuples = List.init 9 (fun i -> mk_tuple sch i 0 "") in
  let r = S.Relation.of_tuples ~disk:d ~name:"r" ~schema:sch tuples in
  let before = S.Disk.page_count d in
  checkb "has pages" true (before > 0);
  S.Relation.free_pages r;
  checki "disk pages released" 0 (S.Disk.page_count d);
  checki "empty" 0 (S.Relation.ntuples r)

(* Two relations on one disk append, seal, free and refill in turn, so
   each reuses frames the other freed; each keeps its own tuples. *)
let test_relation_interleaved_reuse () =
  let _, d = rel_setup ~page_size:128 () in
  let sch = schema () in
  let r = S.Relation.create ~disk:d ~name:"r" ~schema:sch in
  let s = S.Relation.create ~disk:d ~name:"s" ~schema:sch in
  let keys rel = List.map (fun t -> S.Tuple.get_int sch t 0) (S.Relation.to_list rel) in
  let want_r = ref [] and want_s = ref [] in
  for round = 0 to 5 do
    for i = 0 to 10 do
      let k = (100 * round) + i in
      S.Relation.append r (mk_tuple sch k 0 "");
      S.Relation.append s (mk_tuple sch (-k) 0 "");
      want_r := k :: !want_r;
      want_s := -k :: !want_s;
      if i mod 4 = 0 then S.Relation.seal r
    done;
    Alcotest.(check (list int)) "r keeps its tuples" (List.rev !want_r) (keys r);
    Alcotest.(check (list int)) "s keeps its tuples" (List.rev !want_s) (keys s);
    if round mod 2 = 0 then (S.Relation.free_pages r; want_r := [])
    else (S.Relation.free_pages s; want_s := [])
  done

let qcheck_relation_roundtrip =
  QCheck.Test.make ~name:"relation roundtrips arbitrary int lists" ~count:100
    QCheck.(list (int_range (-1000) 1000))
    (fun xs ->
      let _, d = rel_setup ~page_size:256 () in
      let sch = schema () in
      let tuples = List.map (fun x -> mk_tuple sch x x "t") xs in
      let r = S.Relation.of_tuples ~disk:d ~name:"q" ~schema:sch tuples in
      let back =
        List.map (fun t -> S.Tuple.get_int sch t 0) (S.Relation.to_list r)
      in
      back = xs)

let test_relation_with_schema_view () =
  let _, d = rel_setup ~page_size:256 () in
  let sch = schema () in
  let tuples = List.init 20 (fun i -> mk_tuple sch i (19 - i) "x") in
  let r = S.Relation.of_tuples ~disk:d ~name:"r" ~schema:sch tuples in
  (* Re-keyed view shares pages: same tuples, different key column. *)
  let view = S.Relation.with_schema r (S.Schema.with_key sch "v") in
  checki "same cardinality" 20 (S.Relation.ntuples view);
  checki "view keyed on v" 1 (S.Schema.key_index (S.Relation.schema view));
  let keys rel =
    let s = S.Relation.schema rel in
    let acc = ref [] in
    S.Relation.iter_tuples_nocharge rel (fun t ->
        acc := Bytes.to_string (S.Tuple.key_bytes s t) :: !acc);
    List.rev !acc
  in
  (* The view's key bytes are column v's values. *)
  checkb "keys differ between base and view" true (keys r <> keys view);
  (* Width mismatch rejected. *)
  let narrow = S.Schema.create ~key:"a" [ S.Schema.column "a" S.Schema.Int ] in
  Alcotest.check_raises "width mismatch"
    (Invalid_argument "Relation.with_schema: tuple width mismatch") (fun () ->
      ignore (S.Relation.with_schema r narrow))

let test_relation_page_ids_stable () =
  let _, d = rel_setup ~page_size:128 () in
  let sch = schema () in
  let tuples = List.init 9 (fun i -> mk_tuple sch i 0 "") in
  let r = S.Relation.of_tuples ~disk:d ~name:"r" ~schema:sch tuples in
  let ids = S.Relation.page_ids r in
  checki "3 pages" 3 (Array.length ids);
  (* Ids are distinct and readable. *)
  let distinct = List.sort_uniq compare (Array.to_list ids) in
  checki "distinct" 3 (List.length distinct);
  Array.iter (fun pid -> ignore (S.Disk.read_nocharge d pid)) ids

let () =
  Alcotest.run "mmdb_storage"
    [
      ( "cost/clock/env",
        [
          Alcotest.test_case "table2 constants" `Quick test_cost_table2;
          Alcotest.test_case "clock" `Quick test_clock;
          Alcotest.test_case "clock negative" `Quick test_clock_negative;
          Alcotest.test_case "env charging" `Quick test_env_charging;
          Alcotest.test_case "counters diff" `Quick test_counters_diff;
        ] );
      ( "page",
        [
          Alcotest.test_case "capacity" `Quick test_page_capacity;
          Alcotest.test_case "append/get" `Quick test_page_append_get;
          Alcotest.test_case "fills up" `Quick test_page_fills_up;
          Alcotest.test_case "iter" `Quick test_page_iter;
          Alcotest.test_case "bounds" `Quick test_page_bounds;
        ] );
      ( "schema",
        [
          Alcotest.test_case "layout" `Quick test_schema_layout;
          Alcotest.test_case "with_key" `Quick test_schema_with_key;
          Alcotest.test_case "errors" `Quick test_schema_errors;
        ] );
      ( "tuple",
        [
          Alcotest.test_case "roundtrip" `Quick test_tuple_roundtrip;
          Alcotest.test_case "set_int" `Quick test_tuple_set_int;
          Alcotest.test_case "key compare" `Quick test_tuple_key_compare;
          Alcotest.test_case "negative ordering" `Quick
            test_tuple_negative_ordering;
          QCheck_alcotest.to_alcotest qcheck_int_encoding_order;
          QCheck_alcotest.to_alcotest qcheck_narrow_int_roundtrip;
          Alcotest.test_case "narrow out of range" `Quick
            test_narrow_int_out_of_range;
          Alcotest.test_case "string too long" `Quick test_string_too_long;
          Alcotest.test_case "hash deterministic" `Quick
            test_hash_key_deterministic;
        ] );
      ( "disk",
        [
          Alcotest.test_case "alloc/rw/charges" `Quick test_disk_alloc_rw;
          Alcotest.test_case "read isolation" `Quick
            test_disk_read_copy_isolated;
          Alcotest.test_case "free" `Quick test_disk_free;
          Alcotest.test_case "nocharge" `Quick test_disk_nocharge;
          Alcotest.test_case "zero page never pooled" `Quick
            test_disk_zero_page_not_pooled;
          Alcotest.test_case "walk keeps its image" `Quick
            test_disk_walk_keeps_its_image;
          Alcotest.test_case "freed frames reused" `Quick test_disk_frames_reused;
        ] );
      ( "buffer_pool",
        [
          Alcotest.test_case "hit & fault" `Quick test_pool_hit_and_fault;
          Alcotest.test_case "capacity bound" `Quick test_pool_capacity_bound;
          Alcotest.test_case "lru order" `Quick test_pool_lru_eviction_order;
          Alcotest.test_case "random bounded" `Quick
            test_pool_random_policy_bounded;
          Alcotest.test_case "clock bounded" `Quick test_pool_clock_policy_bounded;
          Alcotest.test_case "random fault rate ~ model" `Quick
            test_pool_random_fault_rate_matches_model;
          QCheck_alcotest.to_alcotest qcheck_pool_accounting;
        ] );
      ( "relation",
        [
          Alcotest.test_case "append/scan" `Quick test_relation_append_scan;
          Alcotest.test_case "npages" `Quick test_relation_npages;
          Alcotest.test_case "charged append" `Quick test_relation_charged_append;
          Alcotest.test_case "charged scan" `Quick test_relation_charged_scan;
          Alcotest.test_case "append after seal" `Quick
            test_relation_append_after_seal;
          Alcotest.test_case "free pages" `Quick test_relation_free_pages;
          Alcotest.test_case "interleaved frame reuse" `Quick
            test_relation_interleaved_reuse;
          QCheck_alcotest.to_alcotest qcheck_relation_roundtrip;
          Alcotest.test_case "with_schema view" `Quick
            test_relation_with_schema_view;
          Alcotest.test_case "page_ids stable" `Quick
            test_relation_page_ids_stable;
        ] );
    ]
