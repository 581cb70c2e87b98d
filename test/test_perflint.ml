(* Tests for the PERF rule family of the lint: synthetic sources
   asserting the exact PERF code for each hazard class (and the silence
   of the corresponding clean idiom), the perf_lint justification
   marker, scan determinism, and the catalogue plumbing. *)

module V = Mmdb_verify
module L = V.Lint

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let perf code = String.starts_with ~prefix:"PERF" code

(* The PERF findings of one source, failing the test on a parse error. *)
let scan ?(file = "lib/core/synthetic.ml") source =
  match L.analyze [ (file, source) ] with
  | findings, [] -> List.filter (fun (f : L.finding) -> perf f.L.code) findings
  | _, d :: _ -> Alcotest.failf "unexpected parse failure: %s" d.V.Diag.message

let codes findings =
  List.sort_uniq compare (List.map (fun (f : L.finding) -> f.L.code) findings)

let flagged_codes findings =
  codes
    (List.filter (fun (f : L.finding) -> f.L.status = L.Flagged) findings)

let check_codes msg expected findings =
  Alcotest.(check (list string)) msg expected (flagged_codes findings)

(* ------------------------------------------------------------------ *)
(* One fixture per code                                                *)
(* ------------------------------------------------------------------ *)

let test_perf101_tail_append () =
  let fs = scan "let add_tail xs x = xs @ [ x ]" in
  check_codes "tail-append flagged" [ "PERF101" ] fs;
  (match fs with
  | [ f ] ->
    Alcotest.(check string) "construct" "xs @ [x]" f.L.construct;
    Alcotest.(check string) "binding" "add_tail" f.L.name;
    checki "line" 1 f.L.line
  | _ -> Alcotest.fail "expected exactly one finding");
  (* The remediation idiom is silent. *)
  check_codes "cons + rev is clean" []
    (scan "let add xs x = List.rev (x :: List.rev xs)");
  (* A general append of two variables is not a tail-append. *)
  check_codes "xs @ ys is clean" [] (scan "let cat xs ys = xs @ ys")

let test_perf102_nth_under_iteration () =
  check_codes "nth in iter callback" [ "PERF102" ]
    (scan "let f l = List.iter (fun i -> ignore (List.nth l i)) l");
  check_codes "length in for loop" [ "PERF102" ]
    (scan "let f l = for _ = 1 to 3 do ignore (List.length l) done");
  check_codes "length in rec fn" [ "PERF102" ]
    (scan "let rec f l = if List.length l = 0 then 0 else f (List.tl l)");
  (* The same primitives outside iteration are fine. *)
  check_codes "bare length is clean" [] (scan "let n l = List.length l")

let test_perf103_poly_compare_hot_dirs () =
  let src = "let sort l = List.sort compare l" in
  check_codes "compare in storage/" [ "PERF103" ]
    (scan ~file:"lib/storage/synthetic.ml" src);
  check_codes "hash in exec/" [ "PERF103" ]
    (scan ~file:"lib/exec/synthetic.ml" "let h x = Hashtbl.hash x");
  (* Cold directories and monomorphic comparators are out of scope. *)
  check_codes "compare in core/ is clean" []
    (scan ~file:"lib/core/synthetic.ml" src);
  check_codes "Int.compare is clean" []
    (scan ~file:"lib/storage/synthetic.ml"
       "let sort l = List.sort Int.compare l")

let test_perf104_nontail_recursion () =
  check_codes "non-tail len" [ "PERF104" ]
    (scan "let rec len = function [] -> 0 | _ :: tl -> 1 + len tl");
  (* Accumulator version is tail-recursive. *)
  check_codes "tail len is clean" []
    (scan
       "let rec len acc = function [] -> acc | _ :: tl -> len (acc + 1) tl");
  (* Non-list recursion (no cons pattern) is out of scope. *)
  check_codes "countdown is clean" []
    (scan "let rec f n = if n = 0 then 0 else 1 + f (n - 1)");
  (* A tail call inside an iterator callback that encloses the whole
     definition must not be mistaken for a non-tail self-call. *)
  check_codes "tail call under outer callback is clean" []
    (scan
       "let g xs =\n\
       \  List.iter\n\
       \    (fun x ->\n\
       \       let rec walk = function [] -> () | _ :: tl -> walk tl in\n\
       \       walk x)\n\
       \    xs")

let test_perf105_concat_under_iteration () =
  check_codes "concat in fold" [ "PERF105" ]
    (scan "let j l = List.fold_left (fun acc s -> acc ^ s) \"\" l");
  check_codes "concat in while" [ "PERF105" ]
    (scan
       "let f r = while String.length !r < 9 do r := !r ^ \"x\" done");
  check_codes "one-shot concat is clean" [] (scan "let f a b = a ^ b")

(* ------------------------------------------------------------------ *)
(* Whitelist, determinism, parse failure                               *)
(* ------------------------------------------------------------------ *)

let test_justification_whitelist () =
  let src =
    "(* perf_lint: test corpus; bounded at three elements *)\n\
     let add_tail xs x = xs @ [ x ]"
  in
  let fs = scan src in
  check_codes "justified finding is not flagged" [] fs;
  (match fs with
  | [ { L.status = L.Justified why; _ } ] ->
    checkb "justification text echoed" true
      (why = "test corpus; bounded at three elements")
  | _ -> Alcotest.fail "expected one whitelisted finding");
  (* Three or more lines away, the comment no longer applies. *)
  let far =
    "(* perf_lint: too far away *)\n\n\n let add_tail xs x = xs @ [ x ]"
  in
  check_codes "distant comment does not silence" [ "PERF101" ] (scan far)

let test_determinism () =
  let src =
    "let a xs x = xs @ [ x ]\n\
     let b l = List.iter (fun i -> ignore (List.nth l i)) l\n\
     let rec len = function [] -> 0 | _ :: tl -> 1 + len tl"
  in
  checkb "two scans agree" true (scan src = scan src);
  Alcotest.(check (list string))
    "all three hazards found"
    [ "PERF101"; "PERF102"; "PERF104" ]
    (flagged_codes (scan src))

let test_parse_failure () =
  let _, diags = L.analyze [ ("lib/bad.ml", "let = (") ] in
  match List.filter (fun (d : V.Diag.t) -> perf d.V.Diag.code) diags with
  | [ d ] -> Alcotest.(check string) "code" "PERF100" d.V.Diag.code
  | _ -> Alcotest.fail "expected PERF100"

(* ------------------------------------------------------------------ *)
(* Repo sweep and catalogue plumbing                                   *)
(* ------------------------------------------------------------------ *)

(* The library must stay perf-clean: every hazard fixed or justified. *)
let test_repo_sources_clean () =
  match L.scan_lib () with
  | Error m -> Alcotest.fail m
  | Ok (findings, parse_diags) ->
    let diags =
      List.filter
        (fun (d : V.Diag.t) -> perf d.V.Diag.code)
        (parse_diags @ L.diags_of_findings findings)
    in
    List.iter
      (fun (d : V.Diag.t) ->
        Printf.printf "unjustified: [%s] %s %s\n" d.V.Diag.code d.V.Diag.path
          d.V.Diag.message)
      diags;
    checkb "no unjustified perf findings in lib/" false
      (V.Diag.has_errors diags)

let test_code_catalogue () =
  let cat = V.code_catalogue in
  List.iter
    (fun c ->
      checkb (c ^ " catalogued") true (List.mem_assoc c cat);
      checki (c ^ " unique") 1
        (List.length (List.filter (fun (c', _) -> c' = c) cat)))
    [ "PERF100"; "PERF101"; "PERF102"; "PERF103"; "PERF104"; "PERF105" ]

let () =
  Alcotest.run "perflint"
    [
      ( "codes",
        [
          Alcotest.test_case "PERF101 tail-append" `Quick
            test_perf101_tail_append;
          Alcotest.test_case "PERF102 nth/length under iteration" `Quick
            test_perf102_nth_under_iteration;
          Alcotest.test_case "PERF103 polymorphic compare/hash" `Quick
            test_perf103_poly_compare_hot_dirs;
          Alcotest.test_case "PERF104 non-tail recursion" `Quick
            test_perf104_nontail_recursion;
          Alcotest.test_case "PERF105 concat under iteration" `Quick
            test_perf105_concat_under_iteration;
        ] );
      ( "policy",
        [
          Alcotest.test_case "justification whitelist" `Quick
            test_justification_whitelist;
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "parse failure (PERF100)" `Quick
            test_parse_failure;
          Alcotest.test_case "repo sources clean" `Quick
            test_repo_sources_clean;
          Alcotest.test_case "code catalogue" `Quick test_code_catalogue;
        ] );
    ]
