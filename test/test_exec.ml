(* Tests for Mmdb_exec: run generation, external sort, the four join
   algorithms (checked against a nested-loop oracle), hash tables,
   partitioning, aggregation and projection. *)

module S = Mmdb_storage
module U = Mmdb_util
module E = Mmdb_exec

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

(* R(k, v) and S(k, w): 16-byte tuples. *)
let r_schema () =
  S.Schema.create ~key:"k"
    [ S.Schema.column "k" S.Schema.Int; S.Schema.column "v" S.Schema.Int ]

let s_schema () =
  S.Schema.create ~key:"k"
    [ S.Schema.column "k" S.Schema.Int; S.Schema.column "w" S.Schema.Int ]

let fresh_disk ?(page_size = 128) () =
  let env = S.Env.create () in
  (env, S.Disk.create ~env ~page_size)

let mk sch k v = S.Tuple.encode sch [ S.Tuple.VInt k; S.Tuple.VInt v ]

let load disk name sch pairs =
  S.Relation.of_tuples ~disk ~name ~schema:sch
    (List.map (fun (k, v) -> mk sch k v) pairs)

let key_of sch t = S.Tuple.get_int sch t 0
let snd_of sch t = S.Tuple.get_int sch t 1

(* Random workload: keys in [0, key_range) so duplicates occur. *)
let random_pairs rng n key_range =
  List.init n (fun i -> (U.Xorshift.int rng key_range, i))

(* The canonical multiset representation of a join result. *)
let join_triples rs ss emit_impl =
  let rsch = S.Relation.schema rs and ssch = S.Relation.schema ss in
  let acc = ref [] in
  let n =
    emit_impl (fun r_tup s_tup ->
        acc :=
          (key_of rsch r_tup, snd_of rsch r_tup, snd_of ssch s_tup) :: !acc)
  in
  checki "emit count matches return" n (List.length !acc);
  List.sort compare !acc

let oracle rs ss =
  join_triples rs ss (fun emit -> E.Nested_loop.join_uncharged rs ss emit)

let check_algo_matches_oracle ?(mem_pages = 8) algo r_pairs s_pairs () =
  let _, disk = fresh_disk () in
  let rs = load disk "R" (r_schema ()) r_pairs in
  let ss = load disk "S" (s_schema ()) s_pairs in
  let expected = oracle rs ss in
  let got =
    join_triples rs ss (fun emit ->
        E.Joiner.run algo ~mem_pages ~fudge:1.2 rs ss emit)
  in
  Alcotest.(check (list (triple int int int)))
    (E.Joiner.name algo ^ " matches oracle")
    expected got

(* ------------------------------------------------------------------ *)
(* Run generation                                                      *)
(* ------------------------------------------------------------------ *)

let run_sorted sch run =
  let prev = ref None in
  let ok = ref true in
  S.Relation.iter_tuples_nocharge run (fun t ->
      (match !prev with
      | Some p -> if S.Tuple.compare_keys sch p t > 0 then ok := false
      | None -> ());
      prev := Some t);
  !ok

let test_run_gen_sorted_and_complete () =
  let _, disk = fresh_disk () in
  let sch = r_schema () in
  let rng = U.Xorshift.create 5 in
  let pairs = random_pairs rng 500 1000 in
  let rel = load disk "R" sch pairs in
  let runs = E.Run_gen.runs ~mem_pages:2 rel in
  checkb "several runs" true (List.length runs > 1);
  List.iter (fun run -> checkb "run sorted" true (run_sorted sch run)) runs;
  let total = List.fold_left (fun a r -> a + S.Relation.ntuples r) 0 runs in
  checki "no tuples lost" 500 total;
  (* Multiset equality with the input. *)
  let input = List.sort compare (List.map fst pairs) in
  let output = ref [] in
  List.iter
    (fun run ->
      S.Relation.iter_tuples_nocharge run (fun t ->
          output := key_of sch t :: !output))
    runs;
  Alcotest.(check (list int)) "same keys" input (List.sort compare !output)

let test_run_gen_sorted_input_one_run () =
  let _, disk = fresh_disk () in
  let sch = r_schema () in
  let pairs = List.init 300 (fun i -> (i, i)) in
  let rel = load disk "R" sch pairs in
  let runs = E.Run_gen.runs ~mem_pages:2 rel in
  (* Replacement selection turns presorted input into a single run. *)
  checki "one run" 1 (List.length runs)

let test_run_gen_average_length () =
  (* Knuth: runs average 2|M| pages on random input. *)
  let _, disk = fresh_disk ~page_size:256 () in
  let sch = r_schema () in
  let rng = U.Xorshift.create 77 in
  let pairs = random_pairs rng 6000 1_000_000 in
  let rel = load disk "R" sch pairs in
  let mem_pages = 3 in
  let runs = E.Run_gen.runs ~mem_pages rel in
  let avg_pages =
    float_of_int (List.fold_left (fun a r -> a + S.Relation.npages r) 0 runs)
    /. float_of_int (List.length runs)
  in
  let expect = 2.0 *. float_of_int mem_pages in
  checkb
    (Printf.sprintf "avg run %.2f pages within 25%% of %.1f" avg_pages expect)
    true
    (Float.abs (avg_pages -. expect) < 0.25 *. expect)

let test_run_gen_charges_io () =
  let env, disk = fresh_disk () in
  let sch = r_schema () in
  let rng = U.Xorshift.create 9 in
  let rel = load disk "R" sch (random_pairs rng 200 500) in
  let before = env.S.Env.counters.S.Counters.seq_writes in
  let runs = E.Run_gen.runs ~mem_pages:2 rel in
  let run_pages = List.fold_left (fun a r -> a + S.Relation.npages r) 0 runs in
  checki "every run page written sequentially" (before + run_pages)
    env.S.Env.counters.S.Counters.seq_writes

(* ------------------------------------------------------------------ *)
(* External sort                                                       *)
(* ------------------------------------------------------------------ *)

let test_external_sort_sorts () =
  let _, disk = fresh_disk () in
  let sch = r_schema () in
  let rng = U.Xorshift.create 11 in
  let pairs = random_pairs rng 800 2000 in
  let rel = load disk "R" sch pairs in
  let sorted = E.External_sort.sort ~mem_pages:4 rel in
  checkb "output sorted" true (run_sorted sch sorted);
  checki "same cardinality" 800 (S.Relation.ntuples sorted);
  let input = List.sort compare (List.map fst pairs) in
  let out = ref [] in
  S.Relation.iter_tuples_nocharge sorted (fun t -> out := key_of sch t :: !out);
  Alcotest.(check (list int)) "permutation" input (List.sort compare !out)

let test_external_sort_empty () =
  let _, disk = fresh_disk () in
  let rel = load disk "R" (r_schema ()) [] in
  let sorted = E.External_sort.sort ~mem_pages:4 rel in
  checki "empty stays empty" 0 (S.Relation.ntuples sorted)

let test_cursor_merges_in_order () =
  let _, disk = fresh_disk () in
  let sch = r_schema () in
  let run1 = load disk "r1" sch [ (1, 0); (4, 0); (7, 0) ] in
  let run2 = load disk "r2" sch [ (2, 0); (5, 0); (6, 0) ] in
  let run3 = load disk "r3" sch [ (3, 0) ] in
  let c = E.External_sort.cursor_of_runs ~schema:sch [ run1; run2; run3 ] in
  let rec drain acc =
    match E.External_sort.next c with
    | Some t -> drain (key_of sch t :: acc)
    | None -> List.rev acc
  in
  Alcotest.(check (list int)) "merged" [ 1; 2; 3; 4; 5; 6; 7 ] (drain []);
  checkb "exhausted" true (E.External_sort.peek c = None)

(* ------------------------------------------------------------------ *)
(* Hash table                                                          *)
(* ------------------------------------------------------------------ *)

let test_hash_table_basics () =
  let env, _ = fresh_disk () in
  let sch = r_schema () in
  let t = E.Hash_table.create ~env ~schema:sch ~tuples_per_page:7 in
  E.Hash_table.insert t (mk sch 1 10);
  E.Hash_table.insert t (mk sch 1 11);
  E.Hash_table.insert t (mk sch 2 20);
  checki "length" 3 (E.Hash_table.length t);
  checki "data pages" 1 (E.Hash_table.data_pages t);
  let hits = ref [] in
  E.Hash_table.probe t ~probe_schema:(s_schema ()) (mk (s_schema ()) 1 99)
    (fun r -> hits := snd_of sch r :: !hits);
  Alcotest.(check (list int)) "both duplicates" [ 10; 11 ]
    (List.sort compare !hits);
  let misses = ref 0 in
  E.Hash_table.probe t ~probe_schema:(s_schema ()) (mk (s_schema ()) 9 0)
    (fun _ -> incr misses);
  checki "no false hits" 0 !misses

let test_hash_table_memory_pages () =
  let env, _ = fresh_disk () in
  let sch = r_schema () in
  let t = E.Hash_table.create ~env ~schema:sch ~tuples_per_page:10 in
  for i = 1 to 25 do
    E.Hash_table.insert t (mk sch i i)
  done;
  checki "data pages" 3 (E.Hash_table.data_pages t);
  checki "memory pages with F=1.2" 4 (E.Hash_table.memory_pages t ~fudge:1.2)

let test_hash_table_charges () =
  let env, _ = fresh_disk () in
  let sch = r_schema () in
  let t = E.Hash_table.create ~env ~schema:sch ~tuples_per_page:10 in
  let m0 = env.S.Env.counters.S.Counters.moves in
  E.Hash_table.insert t (mk sch 1 1);
  checki "insert charges move" (m0 + 1) env.S.Env.counters.S.Counters.moves;
  let c0 = env.S.Env.counters.S.Counters.comparisons in
  E.Hash_table.probe t ~probe_schema:sch (mk sch 1 0) (fun _ -> ());
  checki "probe charges comp" (c0 + 1) env.S.Env.counters.S.Counters.comparisons

(* Model test: a list of (key, value) in insertion order.  Keys are
   1-byte ints, so distinct keys share chains; the probe schema holds its
   key at offset 8 where the table's is at 0.  Each phase starts with
   [clear] and reuses the table, as the partition loops do. *)
let qcheck_hash_table_model =
  let table_schema =
    S.Schema.create ~key:"k"
      [ S.Schema.column ~width:1 "k" S.Schema.Int; S.Schema.column "v" S.Schema.Int ]
  in
  let probe_schema =
    S.Schema.create ~key:"k"
      [ S.Schema.column "w" S.Schema.Int; S.Schema.column ~width:1 "k" S.Schema.Int ]
  in
  let key = QCheck.Gen.int_range (-128) 127 in
  let phase =
    QCheck.Gen.(
      pair
        (list_size (int_range 0 300) (oneof [ int_range 0 7; key ]))
        (list_size (int_range 0 40) key))
  in
  QCheck.Test.make ~name:"hash table matches a list model" ~count:60
    (QCheck.make
       ~print:QCheck.Print.(list (pair (list int) (list int)))
       QCheck.Gen.(list_size (int_range 1 4) phase))
    (fun phases ->
      let env = S.Env.create () in
      let t = E.Hash_table.create ~env ~schema:table_schema ~tuples_per_page:5 in
      let counters = env.S.Env.counters in
      List.for_all
        (fun (inserts, probes) ->
          E.Hash_table.clear t;
          let m0 = counters.S.Counters.moves in
          let model = List.mapi (fun v k -> (k, v)) inserts in
          List.iter (fun (k, v) -> E.Hash_table.insert t (mk table_schema k v)) model;
          counters.S.Counters.moves - m0 = List.length model
          && E.Hash_table.length t = List.length model
          && List.for_all
               (fun k ->
                 let c0 = counters.S.Counters.comparisons in
                 let got = ref [] in
                 E.Hash_table.probe t ~probe_schema
                   (S.Tuple.encode probe_schema [ S.Tuple.VInt (-1); S.Tuple.VInt k ])
                   (fun r -> got := (key_of table_schema r, snd_of table_schema r) :: !got);
                 let want = List.filter (fun (k', _) -> k' = k) model in
                 List.rev !got = want
                 && counters.S.Counters.comparisons - c0 = max 1 (List.length want))
               probes)
        phases)

(* ------------------------------------------------------------------ *)
(* Partition                                                           *)
(* ------------------------------------------------------------------ *)

let test_partition_compatible () =
  let env, disk = fresh_disk () in
  let rng = U.Xorshift.create 31 in
  let rs = load disk "R" (r_schema ()) (random_pairs rng 300 50) in
  let ss = load disk "S" (s_schema ()) (random_pairs rng 400 50) in
  let hr = E.Hash_fn.create ~env ~schema:(r_schema ()) ~seed:7 in
  let hs = E.Hash_fn.create ~env ~schema:(s_schema ()) ~seed:7 in
  let rb =
    E.Partition.split ~scan:E.Partition.Free ~nbuckets:4 ~hash:hr
      ~write_mode:S.Disk.Rand rs
  in
  let sb =
    E.Partition.split ~scan:E.Partition.Free ~nbuckets:4 ~hash:hs
      ~write_mode:S.Disk.Rand ss
  in
  (* Compatibility: a key appearing in R bucket i never appears in any S
     bucket j <> i. *)
  let bucket_keys buckets sch =
    Array.map
      (fun b ->
        let keys = Hashtbl.create 16 in
        S.Relation.iter_tuples_nocharge b (fun t ->
            Hashtbl.replace keys (key_of sch t) ());
        keys)
      buckets
  in
  let rk = bucket_keys rb (r_schema ()) and sk = bucket_keys sb (s_schema ()) in
  for i = 0 to 3 do
    for j = 0 to 3 do
      if i <> j then
        Hashtbl.iter
          (fun k () ->
            checkb
              (Printf.sprintf "key %d in R[%d] not in S[%d]" k i j)
              false (Hashtbl.mem sk.(j) k))
          rk.(i)
    done
  done;
  (* No tuples lost. *)
  let total a = Array.fold_left (fun acc b -> acc + S.Relation.ntuples b) 0 a in
  checki "R total" 300 (total rb);
  checki "S total" 400 (total sb);
  E.Partition.free rb;
  E.Partition.free sb

let test_partition_fraction_split () =
  let env, disk = fresh_disk () in
  let rng = U.Xorshift.create 41 in
  let rs = load disk "R" (r_schema ()) (random_pairs rng 2000 100_000) in
  let h = E.Hash_fn.create ~env ~schema:(r_schema ()) ~seed:3 in
  let mem, buckets =
    E.Partition.split_fraction ~scan:E.Partition.Free ~q:0.5 ~nbuckets:3
      ~hash:h ~write_mode:S.Disk.Seq rs
  in
  let in_mem = List.length mem in
  let on_disk =
    Array.fold_left (fun acc b -> acc + S.Relation.ntuples b) 0 buckets
  in
  checki "nothing lost" 2000 (in_mem + on_disk);
  checkb
    (Printf.sprintf "about half in memory (%d)" in_mem)
    true
    (in_mem > 800 && in_mem < 1200);
  E.Partition.free buckets

let test_partition_write_mode_charges () =
  let env, disk = fresh_disk () in
  let rng = U.Xorshift.create 43 in
  let rs = load disk "R" (r_schema ()) (random_pairs rng 300 1000) in
  let h = E.Hash_fn.create ~env ~schema:(r_schema ()) ~seed:3 in
  let rw0 = env.S.Env.counters.S.Counters.rand_writes in
  let buckets =
    E.Partition.split ~scan:E.Partition.Free ~nbuckets:4 ~hash:h
      ~write_mode:S.Disk.Rand rs
  in
  let pages =
    Array.fold_left (fun acc b -> acc + S.Relation.npages b) 0 buckets
  in
  checki "random writes = partition pages" (rw0 + pages)
    env.S.Env.counters.S.Counters.rand_writes;
  E.Partition.free buckets

(* Whole-tuple hashing, as duplicate elimination and the set operations
   do it: a hash over {!Aggregate.whole}'s view.  Equal tuples hash alike
   whatever the schema's key, a change to any column moves the hash, and
   each evaluation charges exactly one [hash]. *)
let test_whole_tuple_hash () =
  let env, _ = fresh_disk () in
  let by_k = r_schema () in
  let by_v = S.Schema.with_key by_k "v" in
  let wh = E.Hash_fn.create ~env ~schema:(E.Aggregate.whole by_k) ~seed:5 in
  let wv = E.Hash_fn.create ~env ~schema:(E.Aggregate.whole by_v) ~seed:5 in
  let kh = E.Hash_fn.create ~env ~schema:by_k ~seed:5 in
  let a = mk by_k 1 10 and b = mk by_k 1 11 in
  let h0 = env.S.Env.counters.S.Counters.hashes in
  let ha = E.Hash_fn.hash wh a in
  checki "one hash charged" (h0 + 1) env.S.Env.counters.S.Counters.hashes;
  checki "same bytes under another key" ha (E.Hash_fn.hash wv (mk by_v 1 10));
  checkb "non-key column moves the whole-tuple hash" true
    (ha <> E.Hash_fn.hash wh b);
  checki "key hash ignores the non-key column" (E.Hash_fn.hash kh a)
    (E.Hash_fn.hash kh b);
  checkb "non-negative" true (ha >= 0);
  let u = E.Hash_fn.uniform wh a in
  checkb "uniform in [0, 1)" true (u >= 0.0 && u < 1.0)

(* ------------------------------------------------------------------ *)
(* Join algorithms vs oracle                                           *)
(* ------------------------------------------------------------------ *)

let small_r = [ (1, 100); (2, 200); (3, 300); (2, 201) ]
let small_s = [ (2, 9); (3, 8); (4, 7); (2, 6) ]

let dup_heavy n =
  (* Every key appears many times on both sides. *)
  List.init n (fun i -> (i mod 5, i))

let rng_pairs seed n range =
  let rng = U.Xorshift.create seed in
  random_pairs rng n range

let algo_cases algo =
  [
    Alcotest.test_case "small fixed" `Quick
      (check_algo_matches_oracle algo small_r small_s);
    Alcotest.test_case "duplicates both sides" `Quick
      (check_algo_matches_oracle algo (dup_heavy 40) (dup_heavy 30));
    Alcotest.test_case "no matches" `Quick
      (check_algo_matches_oracle algo
         [ (1, 1); (2, 2) ]
         [ (3, 3); (4, 4) ]);
    Alcotest.test_case "empty R" `Quick
      (check_algo_matches_oracle algo [] small_s);
    Alcotest.test_case "empty S" `Quick
      (check_algo_matches_oracle algo small_r []);
    Alcotest.test_case "random 500x600" `Quick
      (check_algo_matches_oracle algo (rng_pairs 1 500 120) (rng_pairs 2 600 120));
    Alcotest.test_case "tiny memory" `Quick
      (check_algo_matches_oracle ~mem_pages:3 algo (rng_pairs 3 400 80)
         (rng_pairs 4 500 80));
    Alcotest.test_case "big memory" `Quick
      (check_algo_matches_oracle ~mem_pages:512 algo (rng_pairs 5 300 60)
         (rng_pairs 6 350 60));
  ]

let test_hybrid_skew_forces_recursion () =
  (* All R tuples share one key: every partition attempt puts them in one
     bucket; the recursion must still terminate and be correct. *)
  let r_pairs = List.init 120 (fun i -> (42, i)) in
  let s_pairs = (43, 0) :: List.init 10 (fun i -> (42, 1000 + i)) in
  check_algo_matches_oracle ~mem_pages:3 E.Joiner.Hybrid_hash_join r_pairs
    s_pairs ()

let test_simple_hash_pass_count () =
  checki "A=4" 4 (E.Simple_hash.passes ~mem_pages:3 ~fudge:1.2 ~r_pages:10);
  checki "A=1 when fits" 1
    (E.Simple_hash.passes ~mem_pages:100 ~fudge:1.2 ~r_pages:10)

let test_hybrid_partition_count () =
  (* |R|F <= m -> B = 0. *)
  checki "B=0" 0 (E.Hybrid_hash.partitions ~mem_pages:13 ~fudge:1.2 ~r_pages:10);
  checkb "B>=1 under pressure" true
    (E.Hybrid_hash.partitions ~mem_pages:4 ~fudge:1.2 ~r_pages:10 >= 1);
  let q = E.Hybrid_hash.q_fraction ~mem_pages:13 ~fudge:1.2 ~r_pages:10 in
  checkb "q=1 when fits" true (q = 1.0)

let test_joiner_names () =
  List.iter
    (fun a ->
      checki "one algorithm per name" 1
        (List.length
           (List.filter
              (fun b -> E.Joiner.name b = E.Joiner.name a)
              (E.Joiner.Nested_loop_join :: E.Joiner.all))))
    (E.Joiner.Nested_loop_join :: E.Joiner.all)

let test_key_width_mismatch_rejected () =
  let _, disk = fresh_disk () in
  let narrow =
    S.Schema.create ~key:"k" [ S.Schema.column ~width:4 "k" S.Schema.Int ]
  in
  let rs = load disk "R" (r_schema ()) [ (1, 1) ] in
  let ss =
    S.Relation.of_tuples ~disk ~name:"S" ~schema:narrow
      [ S.Tuple.encode narrow [ S.Tuple.VInt 1 ] ]
  in
  Alcotest.check_raises "mismatch"
    (Invalid_argument "join: key widths differ between relations") (fun () ->
      ignore (E.Hybrid_hash.join ~mem_pages:8 ~fudge:1.2 rs ss (fun _ _ -> ())))

(* ------------------------------------------------------------------ *)
(* QCheck: all four algorithms agree with the oracle                   *)
(* ------------------------------------------------------------------ *)

let qcheck_all_algos_agree =
  QCheck.Test.make ~name:"all join algorithms agree with nested loop"
    ~count:40
    QCheck.(
      triple
        (list_of_size Gen.(int_range 0 120) (int_range 0 30))
        (list_of_size Gen.(int_range 0 120) (int_range 0 30))
        (int_range 3 32))
    (fun (r_keys, s_keys, mem_pages) ->
      let _, disk = fresh_disk () in
      let rs =
        load disk "R" (r_schema ()) (List.mapi (fun i k -> (k, i)) r_keys)
      in
      let ss =
        load disk "S" (s_schema ()) (List.mapi (fun i k -> (k, i)) s_keys)
      in
      let expected = oracle rs ss in
      List.for_all
        (fun algo ->
          join_triples rs ss (fun emit ->
              E.Joiner.run algo ~mem_pages ~fudge:1.2 rs ss emit)
          = expected)
        E.Joiner.all)

(* ------------------------------------------------------------------ *)
(* Aggregates                                                          *)
(* ------------------------------------------------------------------ *)

let agg_input () =
  [ (1, 10); (2, 5); (1, 30); (3, 7); (2, 15); (1, 20) ]

let decode_agg out =
  let sch = S.Relation.schema out in
  let rows = ref [] in
  S.Relation.iter_tuples_nocharge out (fun t ->
      let vals =
        List.map
          (function S.Tuple.VInt v -> v | S.Tuple.VStr _ -> assert false)
          (S.Tuple.decode sch t)
      in
      rows := vals :: !rows);
  List.sort compare !rows

let test_one_pass_aggregate () =
  let _, disk = fresh_disk () in
  let rel = load disk "T" (r_schema ()) (agg_input ()) in
  let out =
    E.Aggregate.hybrid ~mem_pages:max_int ~fudge:1.2 ~groups:3 (E.Aggregate.Relation rel)
      [ E.Aggregate.Count; E.Aggregate.Sum "v"; E.Aggregate.Min "v";
        E.Aggregate.Max "v"; E.Aggregate.Avg "v" ]
  in
  Alcotest.(check (list (list int)))
    "groups"
    [
      [ 1; 3; 60; 10; 30; 20 ] (* k=1: count 3, sum 60, min 10, max 30, avg 20 *);
      [ 2; 2; 20; 5; 15; 10 ];
      [ 3; 1; 7; 7; 7; 7 ];
    ]
    (decode_agg out)

let test_hybrid_aggregate_matches_one_pass () =
  let _, disk = fresh_disk () in
  let rng = U.Xorshift.create 55 in
  let pairs = random_pairs rng 1500 200 in
  let rel = load disk "T" (r_schema ()) pairs in
  let specs = [ E.Aggregate.Count; E.Aggregate.Sum "v" ] in
  let agg mem_pages = E.Aggregate.hybrid ~mem_pages ~fudge:1.2 ~groups:200 (E.Aggregate.Relation rel) specs in
  let a = agg max_int in
  let b = agg 3 in
  Alcotest.(check (list (list int)))
    "hybrid = one-pass" (decode_agg a) (decode_agg b)

let test_aggregate_empty () =
  let _, disk = fresh_disk () in
  let rel = load disk "T" (r_schema ()) [] in
  let out =
    E.Aggregate.hybrid ~mem_pages:max_int ~fudge:1.2 ~groups:0 (E.Aggregate.Relation rel)
      [ E.Aggregate.Count ]
  in
  checki "no groups" 0 (S.Relation.ntuples out)

let test_aggregate_result_schema () =
  let sch =
    E.Aggregate.result_schema (r_schema ())
      [ E.Aggregate.Count; E.Aggregate.Sum "v" ]
  in
  checki "3 columns" 3 (List.length (S.Schema.columns sch));
  checki "keyed on group" 0 (S.Schema.key_index sch)

let test_sort_based_aggregate_matches_hash () =
  let _, disk = fresh_disk () in
  let rng = U.Xorshift.create 91 in
  let pairs = random_pairs rng 1200 150 in
  let rel = load disk "T" (r_schema ()) pairs in
  let specs =
    [ E.Aggregate.Count; E.Aggregate.Sum "v"; E.Aggregate.Min "v";
      E.Aggregate.Max "v" ]
  in
  let hash_out =
    E.Aggregate.hybrid ~mem_pages:max_int ~fudge:1.2 ~groups:150 (E.Aggregate.Relation rel) specs
  in
  let sort_out = E.Aggregate.sort_based ~mem_pages:4 rel specs in
  Alcotest.(check (list (list int)))
    "sort-based = hash" (decode_agg hash_out) (decode_agg sort_out)

let test_sort_based_aggregate_costs_more () =
  (* Section 3.9's recommendation quantified: with the result fitting in
     memory, one-pass hashing beats sort-group. *)
  let env, disk = fresh_disk ~page_size:512 () in
  let rng = U.Xorshift.create 92 in
  let rel = load disk "T" (r_schema ()) (random_pairs rng 5000 100) in
  let time f =
    let t0 = S.Env.elapsed env in
    let out = f () in
    S.Relation.free_pages out;
    S.Env.elapsed env -. t0
  in
  let hash_t =
    time (fun () ->
        E.Aggregate.hybrid ~mem_pages:max_int ~fudge:1.2 ~groups:100 (E.Aggregate.Relation rel)
          [ E.Aggregate.Count ])
  in
  let sort_t =
    time (fun () -> E.Aggregate.sort_based ~mem_pages:8 rel [ E.Aggregate.Count ])
  in
  checkb
    (Printf.sprintf "hash %.3fs < sort %.3fs" hash_t sort_t)
    true (hash_t < sort_t)

(* [n] 100-byte tuples (key, value, 84-byte pad) whose keys fall in
   [groups] distinct values, on a 4 KiB-page disk. *)
let wide_input ~n ~groups =
  let env, disk = fresh_disk ~page_size:4096 () in
  let schema =
    S.Schema.create ~key:"k"
      [ S.Schema.column "k" S.Schema.Int; S.Schema.column "v" S.Schema.Int;
        S.Schema.column ~width:84 "pad" S.Schema.Fixed_string ]
  in
  let rng = U.Xorshift.create 77 in
  let rel =
    S.Relation.of_tuples ~disk ~name:"T" ~schema
      (List.init n (fun i ->
           S.Tuple.encode schema
             [ S.Tuple.VInt (U.Xorshift.int rng groups); S.Tuple.VInt i; S.Tuple.VStr "" ]))
  in
  (env, disk, rel)

(* [hybrid] over [rel] read as a relation and as a stream: the two agree
   on their rows and charges; returns the rows and the relation run's
   counter delta. *)
let aggregate_both env disk rel ~mem_pages ~groups specs =
  let run source =
    let before = S.Counters.snapshot env.S.Env.counters in
    let out = E.Aggregate.hybrid ~mem_pages ~fudge:1.2 ~groups source specs in
    let delta = S.Counters.diff ~after:env.S.Env.counters ~before in
    (decode_agg out, delta, S.Relation.npages out)
  in
  let rows, delta, out_pages = run (E.Aggregate.Relation rel) in
  let stream =
    E.Aggregate.Stream
      { disk; schema = S.Relation.schema rel; push = S.Relation.iter_tuples_nocharge rel }
  in
  let s_rows, s_delta, _ = run stream in
  Alcotest.(check (list (list int))) "stream rows = relation rows" rows s_rows;
  checkb "stream charges = relation charges" true (s_delta = delta);
  (rows, delta, out_pages)

let test_aggregate_groups_fit_one_pass () =
  (* 100 groups fill one page of |M| = 64, though the 20,000 input
     tuples fill 500: one pass, each tuple hashed once, no partition
     written, nothing read back. *)
  let env, disk, rel = wide_input ~n:20_000 ~groups:100 in
  let specs = [ E.Aggregate.Count; E.Aggregate.Sum "v" ] in
  let rows, c, out_pages = aggregate_both env disk rel ~mem_pages:64 ~groups:100 specs in
  checki "one hash per tuple" 20_000 c.S.Counters.hashes;
  checki "no random writes" 0 c.S.Counters.rand_writes;
  checki "only the result written" out_pages c.S.Counters.seq_writes;
  checki "nothing read" 0 (c.S.Counters.seq_reads + c.S.Counters.rand_reads);
  Alcotest.(check (list (list int)))
    "= sort-based" (decode_agg (E.Aggregate.sort_based ~mem_pages:64 rel specs)) rows

let test_aggregate_groups_overflow_spill () =
  (* 40,000 groups fill far more than |M| = 8 pages: the hybrid split
     writes partitions and reads them back, and every tuple is hashed
     twice, once by the split and once into the group table. *)
  let env, disk, rel = wide_input ~n:40_000 ~groups:40_000 in
  let specs = [ E.Aggregate.Count; E.Aggregate.Min "v" ] in
  let rows, c, out_pages = aggregate_both env disk rel ~mem_pages:8 ~groups:40_000 specs in
  checkb "partitions written" true (c.S.Counters.seq_writes + c.S.Counters.rand_writes > out_pages);
  checkb "partitions read back" true (c.S.Counters.seq_reads > 0);
  checki "two hashes per tuple" 80_000 c.S.Counters.hashes;
  Alcotest.(check (list (list int)))
    "= sort-based" (decode_agg (E.Aggregate.sort_based ~mem_pages:8 rel specs)) rows

(* ------------------------------------------------------------------ *)
(* Pinned charges                                                      *)
(* ------------------------------------------------------------------ *)

(* The exact counters and simulated clock of one spilling hybrid join and
   one spilling hybrid aggregation.  Every figure the repo reports is
   built from these charges, so a change to how an operator holds its
   tuples must leave every count and every bit of the clock as it is. *)
let charges env =
  let c = env.S.Env.counters in
  ( [ c.S.Counters.comparisons; c.S.Counters.hashes; c.S.Counters.moves;
      c.S.Counters.swaps; c.S.Counters.seq_reads; c.S.Counters.seq_writes;
      c.S.Counters.rand_reads; c.S.Counters.rand_writes ],
    Int64.bits_of_float (S.Env.elapsed env) )

let check_charges name (counts, bits) env =
  let got_counts, got_bits = charges env in
  Alcotest.(check (list int)) (name ^ " counters") counts got_counts;
  Alcotest.(check int64) (name ^ " elapsed bits") bits got_bits

let test_pinned_hybrid_join_charges () =
  let env, disk = fresh_disk () in
  let rng = U.Xorshift.create 2024 in
  let rs = load disk "R" (r_schema ()) (random_pairs rng 2000 1500) in
  let ss = load disk "S" (s_schema ()) (random_pairs rng 2000 1500) in
  let r_schema = S.Relation.schema rs and s_schema = S.Relation.schema ss in
  let out =
    S.Relation.create ~disk ~name:"out"
      ~schema:(E.Join_common.result_schema ~r_schema ~s_schema)
  in
  let n =
    E.Hybrid_hash.join ~mem_pages:24 ~fudge:1.2 rs ss (fun r s ->
        S.Relation.append out (E.Join_common.concat_tuples ~r_schema ~s_schema r s))
  in
  S.Relation.seal out;
  checki "matches" 2665 n;
  check_charges "hybrid join"
    ([ 3167; 8073; 6073; 0; 598; 926; 0; 561 ], 4628987896247372492L)
    env

let test_pinned_hybrid_aggregate_charges () =
  (* 700 expected groups of 48-byte result rows fill 350 pages: B = 38. *)
  let env, disk = fresh_disk () in
  let rng = U.Xorshift.create 2025 in
  let rel = load disk "T" (r_schema ()) (random_pairs rng 2000 700) in
  let out =
    E.Aggregate.hybrid ~mem_pages:12 ~fudge:1.2 ~groups:700 (E.Aggregate.Relation rel)
      [ E.Aggregate.Count; E.Aggregate.Sum "v"; E.Aggregate.Min "v";
        E.Aggregate.Max "v"; E.Aggregate.Avg "v" ]
  in
  checki "groups" 667 (S.Relation.ntuples out);
  check_charges "hybrid aggregate"
    ([ 6000; 4000; 2667; 0; 303; 334; 0; 303 ], 4624100382203217786L)
    env

(* ------------------------------------------------------------------ *)
(* Projection                                                          *)
(* ------------------------------------------------------------------ *)

let test_projection_distinct () =
  let _, disk = fresh_disk () in
  let rel =
    load disk "T" (r_schema ())
      [ (1, 10); (1, 10); (2, 10); (1, 20); (2, 10) ]
  in
  let out = E.Projection.distinct ~mem_pages:4 ~fudge:1.2 ~groups:5 ~cols:[ "k"; "v" ] rel in
  let sch = S.Relation.schema out in
  let rows = ref [] in
  S.Relation.iter_tuples_nocharge out (fun t ->
      rows := (S.Tuple.get_int sch t 0, S.Tuple.get_int sch t 1) :: !rows);
  Alcotest.(check (list (pair int int)))
    "distinct pairs"
    [ (1, 10); (1, 20); (2, 10) ]
    (List.sort compare !rows)

let test_projection_single_column () =
  let _, disk = fresh_disk () in
  let rng = U.Xorshift.create 66 in
  let rel = load disk "T" (r_schema ()) (random_pairs rng 1000 37) in
  let out = E.Projection.distinct ~mem_pages:2 ~fudge:1.2 ~groups:37 ~cols:[ "k" ] rel in
  checki "37 distinct keys" 37 (S.Relation.ntuples out);
  let sch = S.Relation.schema out in
  checki "one column" 1 (List.length (S.Schema.columns sch))

let test_projection_spills_match_in_memory () =
  let _, disk = fresh_disk () in
  let rng = U.Xorshift.create 67 in
  let pairs = random_pairs rng 2000 500 in
  let rel = load disk "T" (r_schema ()) pairs in
  let small = E.Projection.distinct ~mem_pages:2 ~fudge:1.2 ~groups:37 ~cols:[ "k" ] rel in
  let large = E.Projection.distinct ~mem_pages:4096 ~fudge:1.2 ~groups:500 ~cols:[ "k" ] rel in
  let keys out =
    let sch = S.Relation.schema out in
    let acc = ref [] in
    S.Relation.iter_tuples_nocharge out (fun t ->
        acc := S.Tuple.get_int sch t 0 :: !acc);
    List.sort compare !acc
  in
  Alcotest.(check (list int)) "same result" (keys large) (keys small)

let test_sort_distinct_matches_hash () =
  let _, disk = fresh_disk () in
  let rng = U.Xorshift.create 93 in
  let pairs = random_pairs rng 1500 60 in
  let rel = load disk "T" (r_schema ()) pairs in
  let dump out =
    let sch = S.Relation.schema out in
    let acc = ref [] in
    S.Relation.iter_tuples_nocharge out (fun t ->
        acc := (S.Tuple.get_int sch t 0, S.Tuple.get_int sch t 1) :: !acc);
    List.sort compare !acc
  in
  let hash_out =
    E.Projection.distinct ~mem_pages:4 ~fudge:1.2 ~groups:5 ~cols:[ "k"; "v" ] rel
  in
  let sort_out =
    E.Projection.sort_distinct ~mem_pages:4 ~cols:[ "k"; "v" ] rel
  in
  Alcotest.(check (list (pair int int)))
    "sort = hash projection" (dump hash_out) (dump sort_out)

let test_projection_unknown_column () =
  let _, disk = fresh_disk () in
  let rel = load disk "T" (r_schema ()) [ (1, 1) ] in
  Alcotest.check_raises "unknown"
    (Invalid_argument "Projection: unknown column zz") (fun () ->
      ignore (E.Projection.distinct ~mem_pages:4 ~fudge:1.2 ~groups:1 ~cols:[ "zz" ] rel))

(* ------------------------------------------------------------------ *)
(* Op stats                                                            *)
(* ------------------------------------------------------------------ *)

let test_op_stats_measure () =
  let env, disk = fresh_disk () in
  let rng = U.Xorshift.create 71 in
  let rs = load disk "R" (r_schema ()) (random_pairs rng 200 40) in
  let ss = load disk "S" (s_schema ()) (random_pairs rng 200 40) in
  let stats =
    E.Joiner.run_measured E.Joiner.Hybrid_hash_join ~mem_pages:4 ~fudge:1.2 rs
      ss
  in
  checkb "output counted" true (stats.E.Op_stats.output_tuples > 0);
  checkb "time charged" true (stats.E.Op_stats.seconds > 0.0);
  checkb "hashes counted" true
    (stats.E.Op_stats.counters.S.Counters.hashes > 0);
  (* A second measurement sees only its own delta. *)
  let s2 =
    E.Joiner.run_measured E.Joiner.Hybrid_hash_join ~mem_pages:4 ~fudge:1.2 rs
      ss
  in
  checki "same output on rerun" stats.E.Op_stats.output_tuples
    s2.E.Op_stats.output_tuples;
  ignore env

(* ------------------------------------------------------------------ *)
(* Empirical cost sanity: measured simulated times follow the model's   *)
(* qualitative ordering.                                                *)
(* ------------------------------------------------------------------ *)

let test_measured_ordering_small_memory () =
  let _, disk = fresh_disk ~page_size:256 () in
  let rng = U.Xorshift.create 81 in
  let n = 3000 in
  let rs = load disk "R" (r_schema ()) (random_pairs rng n 5000) in
  let ss = load disk "S" (s_schema ()) (random_pairs rng n 5000) in
  (* |R| = 3000/15 = 200 pages; memory 20 pages -> ratio ~0.08. *)
  let measure algo =
    (E.Joiner.run_measured algo ~mem_pages:20 ~fudge:1.2 rs ss)
      .E.Op_stats.seconds
  in
  let hybrid = measure E.Joiner.Hybrid_hash_join in
  let grace = measure E.Joiner.Grace_hash_join in
  let simple = measure E.Joiner.Simple_hash_join in
  checkb
    (Printf.sprintf "hybrid (%.2fs) <= grace (%.2fs)" hybrid grace)
    true (hybrid <= grace);
  checkb
    (Printf.sprintf "hybrid (%.2fs) < simple (%.2fs) at small memory" hybrid
       simple)
    true (hybrid < simple)

let () =
  Alcotest.run "mmdb_exec"
    [
      ( "run_gen",
        [
          Alcotest.test_case "sorted & complete" `Quick
            test_run_gen_sorted_and_complete;
          Alcotest.test_case "sorted input -> 1 run" `Quick
            test_run_gen_sorted_input_one_run;
          Alcotest.test_case "avg length ~ 2M" `Quick
            test_run_gen_average_length;
          Alcotest.test_case "charges seq writes" `Quick
            test_run_gen_charges_io;
        ] );
      ( "external_sort",
        [
          Alcotest.test_case "sorts" `Quick test_external_sort_sorts;
          Alcotest.test_case "empty" `Quick test_external_sort_empty;
          Alcotest.test_case "cursor merge" `Quick test_cursor_merges_in_order;
        ] );
      ( "hash_table",
        [
          Alcotest.test_case "basics" `Quick test_hash_table_basics;
          Alcotest.test_case "memory pages" `Quick test_hash_table_memory_pages;
          Alcotest.test_case "charges" `Quick test_hash_table_charges;
          QCheck_alcotest.to_alcotest qcheck_hash_table_model;
        ] );
      ( "partition",
        [
          Alcotest.test_case "compatible partitions" `Quick
            test_partition_compatible;
          Alcotest.test_case "fraction split" `Quick
            test_partition_fraction_split;
          Alcotest.test_case "write mode charges" `Quick
            test_partition_write_mode_charges;
        ] );
      ( "hash: whole tuples",
        [ Alcotest.test_case "key-independent, charged" `Quick
            test_whole_tuple_hash ] );
      ("join: sort-merge", algo_cases E.Joiner.Sort_merge_join);
      ("join: simple hash", algo_cases E.Joiner.Simple_hash_join);
      ("join: grace hash", algo_cases E.Joiner.Grace_hash_join);
      ("join: hybrid hash", algo_cases E.Joiner.Hybrid_hash_join);
      ( "join: misc",
        [
          Alcotest.test_case "hybrid skew recursion" `Quick
            test_hybrid_skew_forces_recursion;
          Alcotest.test_case "simple pass count" `Quick
            test_simple_hash_pass_count;
          Alcotest.test_case "hybrid partition count" `Quick
            test_hybrid_partition_count;
          Alcotest.test_case "joiner names" `Quick test_joiner_names;
          Alcotest.test_case "key width mismatch" `Quick
            test_key_width_mismatch_rejected;
          QCheck_alcotest.to_alcotest qcheck_all_algos_agree;
        ] );
      ( "aggregate",
        [
          Alcotest.test_case "one pass" `Quick test_one_pass_aggregate;
          Alcotest.test_case "hybrid matches one-pass" `Quick
            test_hybrid_aggregate_matches_one_pass;
          Alcotest.test_case "empty" `Quick test_aggregate_empty;
          Alcotest.test_case "result schema" `Quick
            test_aggregate_result_schema;
          Alcotest.test_case "sort-based matches hash" `Quick
            test_sort_based_aggregate_matches_hash;
          Alcotest.test_case "hash beats sort (3.9)" `Quick
            test_sort_based_aggregate_costs_more;
          Alcotest.test_case "groups fit: one pass" `Quick
            test_aggregate_groups_fit_one_pass;
          Alcotest.test_case "groups overflow: spill" `Quick
            test_aggregate_groups_overflow_spill;
        ] );
      ( "pinned charges",
        [
          Alcotest.test_case "hybrid join 2000x2000 spilling" `Quick
            test_pinned_hybrid_join_charges;
          Alcotest.test_case "hybrid aggregate spilling" `Quick
            test_pinned_hybrid_aggregate_charges;
        ] );
      ( "projection",
        [
          Alcotest.test_case "distinct" `Quick test_projection_distinct;
          Alcotest.test_case "single column" `Quick
            test_projection_single_column;
          Alcotest.test_case "spill matches in-memory" `Quick
            test_projection_spills_match_in_memory;
          Alcotest.test_case "unknown column" `Quick
            test_projection_unknown_column;
          Alcotest.test_case "sort-distinct matches hash" `Quick
            test_sort_distinct_matches_hash;
        ] );
      ( "stats & ordering",
        [
          Alcotest.test_case "op stats" `Quick test_op_stats_measure;
          Alcotest.test_case "measured ordering (small memory)" `Quick
            test_measured_ordering_small_memory;
        ] );
    ]
