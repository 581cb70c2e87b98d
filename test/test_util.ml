(* Tests for Mmdb_util: RNG, statistics, heap, table formatting. *)

module U = Mmdb_util

let check = Alcotest.check
let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

(* ------------------------------------------------------------------ *)
(* Xorshift                                                            *)
(* ------------------------------------------------------------------ *)

let test_xorshift_deterministic () =
  let a = U.Xorshift.create 42 and b = U.Xorshift.create 42 in
  for _ = 1 to 100 do
    checki "same stream" (U.Xorshift.int a max_int) (U.Xorshift.int b max_int)
  done

let test_xorshift_seeds_differ () =
  let a = U.Xorshift.create 1 and b = U.Xorshift.create 2 in
  let same = ref 0 in
  for _ = 1 to 50 do
    if U.Xorshift.int a max_int = U.Xorshift.int b max_int then incr same
  done;
  checkb "streams differ" true (!same < 5)

let test_xorshift_zero_seed () =
  let r = U.Xorshift.create 0 in
  checkb "zero seed produces output" true (U.Xorshift.int r max_int <> 0)

let test_int_bounds () =
  let r = U.Xorshift.create 7 in
  for _ = 1 to 1000 do
    let v = U.Xorshift.int r 17 in
    checkb "in range" true (v >= 0 && v < 17)
  done

let test_int_invalid () =
  let r = U.Xorshift.create 7 in
  Alcotest.check_raises "bound 0"
    (Invalid_argument "Xorshift.int: bound must be positive") (fun () ->
      ignore (U.Xorshift.int r 0))

let test_int_in_range () =
  let r = U.Xorshift.create 9 in
  for _ = 1 to 1000 do
    let v = U.Xorshift.int_in_range r ~lo:(-5) ~hi:5 in
    checkb "in [-5,5]" true (v >= -5 && v <= 5)
  done

let test_int_covers_range () =
  let r = U.Xorshift.create 3 in
  let seen = Array.make 10 false in
  for _ = 1 to 2000 do
    seen.(U.Xorshift.int r 10) <- true
  done;
  Array.iteri (fun i s -> checkb (Printf.sprintf "value %d seen" i) true s) seen

let test_float_bounds () =
  let r = U.Xorshift.create 11 in
  for _ = 1 to 1000 do
    let v = U.Xorshift.float r 3.5 in
    checkb "in [0,3.5)" true (v >= 0.0 && v < 3.5)
  done

let test_shuffle_is_permutation () =
  let r = U.Xorshift.create 13 in
  let a = Array.init 100 Fun.id in
  U.Xorshift.shuffle r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 100 Fun.id) sorted

let test_sample_without_replacement () =
  let r = U.Xorshift.create 17 in
  let s = U.Xorshift.sample_without_replacement r ~n:50 ~k:20 in
  checki "size" 20 (Array.length s);
  let seen = Hashtbl.create 32 in
  Array.iter
    (fun v ->
      checkb "in range" true (v >= 0 && v < 50);
      checkb "distinct" false (Hashtbl.mem seen v);
      Hashtbl.add seen v ())
    s

let test_sample_full () =
  let r = U.Xorshift.create 19 in
  let s = U.Xorshift.sample_without_replacement r ~n:10 ~k:10 in
  let sorted = Array.copy s in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "all values" (Array.init 10 Fun.id) sorted

let test_exponential_positive () =
  let r = U.Xorshift.create 23 in
  let sum = ref 0.0 in
  for _ = 1 to 10_000 do
    let v = U.Xorshift.exponential r ~mean:2.0 in
    checkb "positive" true (v >= 0.0);
    sum := !sum +. v
  done;
  let mean = !sum /. 10_000.0 in
  checkb "mean near 2" true (mean > 1.8 && mean < 2.2)

let test_zipf_bounds_and_skew () =
  let r = U.Xorshift.create 29 in
  let counts = Array.make 20 0 in
  for _ = 1 to 5000 do
    let v = U.Xorshift.zipf r ~n:20 ~theta:1.0 in
    checkb "in range" true (v >= 0 && v < 20);
    counts.(v) <- counts.(v) + 1
  done;
  checkb "rank 0 most popular" true (counts.(0) > counts.(10))

let test_zipf_theta_zero_uniform () =
  let r = U.Xorshift.create 31 in
  for _ = 1 to 100 do
    let v = U.Xorshift.zipf r ~n:5 ~theta:0.0 in
    checkb "in range" true (v >= 0 && v < 5)
  done

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)
(* ------------------------------------------------------------------ *)

let feq ?(eps = 1e-9) name a b =
  checkb (name ^ " ~=") true (Float.abs (a -. b) <= eps)

let test_mean_stddev () =
  feq "mean" 3.0 (U.Stats.mean [| 1.0; 2.0; 3.0; 4.0; 5.0 |]);
  feq "stddev" (sqrt 2.5) (U.Stats.stddev [| 1.0; 2.0; 3.0; 4.0; 5.0 |]);
  feq "stddev singleton" 0.0 (U.Stats.stddev [| 7.0 |])

let test_mean_empty () =
  Alcotest.check_raises "empty" (Invalid_argument "Stats.mean: empty sample")
    (fun () -> ignore (U.Stats.mean [||]))

let test_percentile () =
  let xs = [| 5.0; 1.0; 3.0; 2.0; 4.0 |] in
  feq "p0" 1.0 (U.Stats.percentile xs 0.0);
  feq "p50" 3.0 (U.Stats.percentile xs 0.5);
  feq "p100" 5.0 (U.Stats.percentile xs 1.0);
  feq "p25" 2.0 (U.Stats.percentile xs 0.25)

let test_percentile_interpolates () =
  let xs = [| 0.0; 10.0 |] in
  feq "p50 interp" 5.0 (U.Stats.percentile xs 0.5)

let test_summarize () =
  let s = U.Stats.summarize [| 1.0; 2.0; 3.0; 4.0 |] in
  checki "n" 4 s.U.Stats.n;
  feq "mean" 2.5 s.U.Stats.mean;
  feq "min" 1.0 s.U.Stats.min;
  feq "max" 4.0 s.U.Stats.max

(* ------------------------------------------------------------------ *)
(* Heap                                                                *)
(* ------------------------------------------------------------------ *)

let test_heap_basic () =
  let h = U.Heap.create ~cmp:Int.compare () in
  checkb "empty" true (U.Heap.is_empty h);
  U.Heap.push h 5;
  U.Heap.push h 1;
  U.Heap.push h 3;
  checki "length" 3 (U.Heap.length h);
  check Alcotest.(option int) "peek" (Some 1) (U.Heap.peek h);
  checki "pop1" 1 (U.Heap.pop_exn h);
  checki "pop2" 3 (U.Heap.pop_exn h);
  checki "pop3" 5 (U.Heap.pop_exn h);
  check Alcotest.(option int) "empty pop" None (U.Heap.pop h)

let test_heap_pop_exn_empty () =
  let h = U.Heap.create ~cmp:Int.compare () in
  Alcotest.check_raises "empty" (Invalid_argument "Heap.pop_exn: empty heap")
    (fun () -> ignore (U.Heap.pop_exn h))

let test_heap_of_array_invariant () =
  let r = U.Xorshift.create 37 in
  for _ = 1 to 20 do
    let a = Array.init 200 (fun _ -> U.Xorshift.int r 1000) in
    let h = U.Heap.of_array ~cmp:Int.compare a in
    checkb "invariant" true (U.Heap.check_invariant h)
  done

let qcheck_heapsort =
  QCheck.Test.make ~name:"heap sorts like List.sort" ~count:200
    QCheck.(list int)
    (fun xs ->
      let h = U.Heap.create ~cmp:Int.compare () in
      List.iter (U.Heap.push h) xs;
      let rec drain acc =
        match U.Heap.pop h with None -> List.rev acc | Some x -> drain (x :: acc)
      in
      drain [] = List.sort Int.compare xs)

let qcheck_heap_invariant_under_pushes =
  QCheck.Test.make ~name:"heap invariant holds under pushes" ~count:200
    QCheck.(list small_int)
    (fun xs ->
      let h = U.Heap.create ~cmp:Int.compare () in
      List.for_all
        (fun x ->
          U.Heap.push h x;
          U.Heap.check_invariant h)
        xs)

(* ------------------------------------------------------------------ *)
(* Tablefmt                                                            *)
(* ------------------------------------------------------------------ *)

let test_table_render () =
  let t =
    U.Tablefmt.create
      ~aligns:[ U.Tablefmt.Left; U.Tablefmt.Right ]
      [ "name"; "value" ]
  in
  U.Tablefmt.add_row t [ "alpha"; "1" ];
  U.Tablefmt.add_row t [ "b"; "22" ];
  let s = U.Tablefmt.render t in
  checkb "has header" true (String.length s > 0 && String.sub s 0 4 = "name");
  checkb "alpha row aligned left" true
    (let lines = String.split_on_char '\n' s in
     List.exists
       (fun l -> String.length l >= 5 && String.sub l 0 5 = "alpha")
       lines)

let test_table_arity_mismatch () =
  let t = U.Tablefmt.create [ "a"; "b" ] in
  Alcotest.check_raises "arity"
    (Invalid_argument "Tablefmt.add_row: arity mismatch") (fun () ->
      U.Tablefmt.add_row t [ "only one" ])

let test_cell_int_separators () =
  check Alcotest.string "1234567" "1,234,567" (U.Tablefmt.cell_int 1234567);
  check Alcotest.string "negative" "-1,000" (U.Tablefmt.cell_int (-1000));
  check Alcotest.string "small" "42" (U.Tablefmt.cell_int 42);
  check Alcotest.string "zero" "0" (U.Tablefmt.cell_int 0)

let test_cell_float () =
  check Alcotest.string "default decimals" "3.14"
    (U.Tablefmt.cell_float 3.14159);
  check Alcotest.string "4 decimals" "3.1416"
    (U.Tablefmt.cell_float ~decimals:4 3.14159)

let () =
  Alcotest.run "mmdb_util"
    [
      ( "xorshift",
        [
          Alcotest.test_case "deterministic" `Quick test_xorshift_deterministic;
          Alcotest.test_case "seeds differ" `Quick test_xorshift_seeds_differ;
          Alcotest.test_case "zero seed" `Quick test_xorshift_zero_seed;
          Alcotest.test_case "int bounds" `Quick test_int_bounds;
          Alcotest.test_case "int invalid" `Quick test_int_invalid;
          Alcotest.test_case "int_in_range" `Quick test_int_in_range;
          Alcotest.test_case "int covers range" `Quick test_int_covers_range;
          Alcotest.test_case "float bounds" `Quick test_float_bounds;
          Alcotest.test_case "shuffle permutes" `Quick
            test_shuffle_is_permutation;
          Alcotest.test_case "sample w/o replacement" `Quick
            test_sample_without_replacement;
          Alcotest.test_case "sample full" `Quick test_sample_full;
          Alcotest.test_case "exponential" `Quick test_exponential_positive;
          Alcotest.test_case "zipf skew" `Quick test_zipf_bounds_and_skew;
          Alcotest.test_case "zipf uniform" `Quick test_zipf_theta_zero_uniform;
        ] );
      ( "stats",
        [
          Alcotest.test_case "mean/stddev" `Quick test_mean_stddev;
          Alcotest.test_case "mean empty" `Quick test_mean_empty;
          Alcotest.test_case "percentile" `Quick test_percentile;
          Alcotest.test_case "percentile interp" `Quick
            test_percentile_interpolates;
          Alcotest.test_case "summarize" `Quick test_summarize;
        ] );
      ( "heap",
        [
          Alcotest.test_case "basic" `Quick test_heap_basic;
          Alcotest.test_case "pop_exn empty" `Quick test_heap_pop_exn_empty;
          Alcotest.test_case "of_array invariant" `Quick
            test_heap_of_array_invariant;
          QCheck_alcotest.to_alcotest qcheck_heapsort;
          QCheck_alcotest.to_alcotest qcheck_heap_invariant_under_pushes;
        ] );
      ( "tablefmt",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "arity mismatch" `Quick test_table_arity_mismatch;
          Alcotest.test_case "cell_int" `Quick test_cell_int_separators;
          Alcotest.test_case "cell_float" `Quick test_cell_float;
        ] );
    ]
