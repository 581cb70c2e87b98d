(* Tests for the EXN/RES rule family of the lint: synthetic multi-file
   corpora asserting the exact EXN/RES code for each defect class (and
   the silence of the corresponding clean idiom), cross-module summary
   propagation and entry-point reachability, the exn_flow justification
   marker, determinism, EXN100 parse failures, and the catalogue
   plumbing. *)

module V = Mmdb_verify
module L = V.Lint

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let exn code =
  String.starts_with ~prefix:"EXN" code || String.starts_with ~prefix:"RES" code

(* The EXN/RES findings of a corpus of [(path, source)] implementation
   files (plus optional interfaces), failing the test on any parse
   diag. *)
let scan ?(mlis = []) mls =
  let findings, diags = L.analyze (mlis @ mls) in
  (match diags with
  | [] -> ()
  | d :: _ -> Alcotest.failf "unexpected parse failure: %s" d.V.Diag.message);
  List.filter (fun (f : L.finding) -> exn f.L.code) findings

let codes findings =
  List.sort_uniq compare
    (List.map (fun (f : L.finding) -> f.L.code) findings)

let flagged findings =
  List.filter (fun (f : L.finding) -> f.L.status = L.Flagged) findings

let check_codes msg expected findings =
  Alcotest.(check (list string)) msg expected (codes (flagged findings))

(* ------------------------------------------------------------------ *)
(* EXN101: swallowing handlers                                         *)
(* ------------------------------------------------------------------ *)

let test_exn101_catch_all () =
  (* Direct raise under a catch-all. *)
  check_codes "direct fault raise swallowed" [ "EXN101" ]
    (scan
       [
         ( "lib/storage/fixture.ml",
           "let f d = try raise (Fault.Io_error e) with _ -> 0" );
       ]);
  (* Interprocedural: the body calls a sibling whose summary raises. *)
  let fs =
    scan
      [
        ( "lib/storage/fixture.ml",
          "let risky d = raise (Fault.Io_error e)\n\
           let f d = try risky d with _ -> 0" );
      ]
  in
  check_codes "callee summary swallowed" [ "EXN101" ] fs;
  (match flagged fs with
  | [ f ] ->
    Alcotest.(check string) "enclosing fn" "Fixture.f" f.L.name;
    checki "anchored at the try" 2 f.L.line
  | _ -> Alcotest.fail "expected exactly one finding");
  (* Matching the exception explicitly is the clean idiom. *)
  check_codes "explicit match is clean" []
    (scan
       [
         ( "lib/storage/fixture.ml",
           "let risky d = raise (Fault.Io_error e)\n\
            let f d = try risky d with Fault.Io_error _ -> 0" );
       ]);
  (* A catch-all that re-raises its binding does not swallow. *)
  check_codes "re-raising catch-all is not EXN101"
    [ "EXN104" ] (* the plain re-raise is its own (different) defect *)
    (scan
       [
         ( "lib/storage/fixture.ml",
           "let risky d = raise (Fault.Io_error e)\n\
            let f d = try risky d with e -> cleanup (); raise e" );
       ]);
  (* Generic exceptions under a catch-all are not EXN101's business. *)
  check_codes "swallowed Invalid_argument is clean" []
    (scan
       [
         ( "lib/storage/fixture.ml",
           "let f d = try invalid_arg \"x\" with _ -> 0" );
       ])

let test_exn101_lookup () =
  check_codes "Hashtbl.find under Not_found" [ "EXN101" ]
    (scan
       [
         ( "lib/storage/fixture.ml",
           "let f t k = try Hashtbl.find t k with Not_found -> 0" );
       ]);
  (* A handler that raises is a translation, not a swallow. *)
  check_codes "raising handler is clean" []
    (scan
       [
         ( "lib/storage/fixture.ml",
           "let f t k = try Hashtbl.find t k with Not_found -> \
            invalid_arg \"missing\"" );
       ]);
  (* The remediation idiom is silent. *)
  check_codes "find_opt is clean" []
    (scan
       [
         ( "lib/storage/fixture.ml",
           "let f t k = Option.value ~default:0 (Hashtbl.find_opt t k)" );
       ])

(* ------------------------------------------------------------------ *)
(* EXN102: undeclared escape of an exported API                        *)
(* ------------------------------------------------------------------ *)

let exn102_ml =
  "exception Corrupt of string\nlet read_page d = raise (Corrupt \"x\")"

let test_exn102_undeclared_escape () =
  let fs =
    scan
      ~mlis:
        [ ("lib/storage/fixture.mli", "val read_page : int -> int") ]
      [ ("lib/storage/fixture.ml", exn102_ml) ]
  in
  check_codes "undeclared escape flagged" [ "EXN102" ] fs;
  (match flagged fs with
  | [ f ] ->
    Alcotest.(check string) "names the export" "Fixture.read_page" f.L.name;
    checki "anchored at the binding" 2 f.L.line
  | _ -> Alcotest.fail "expected exactly one finding");
  (* A @raise line naming the exception satisfies the contract. *)
  check_codes "@raise declaration is clean" []
    (scan
       ~mlis:
         [
           ( "lib/storage/fixture.mli",
             "val read_page : int -> int\n\
              (** @raise Corrupt on checksum failure. *)" );
         ]
       [ ("lib/storage/fixture.ml", exn102_ml) ]);
  (* An unexported binding has no public contract to break. *)
  check_codes "unexported fn is clean" []
    (scan
       ~mlis:[ ("lib/storage/fixture.mli", "val other : int") ]
       [ ("lib/storage/fixture.ml", exn102_ml) ]);
  (* Outside the declared-contract directories the rule is silent. *)
  check_codes "util/ is out of scope" []
    (scan
       ~mlis:[ ("lib/util/fixture.mli", "val read_page : int -> int") ]
       [ ("lib/util/fixture.ml", exn102_ml) ])

(* ------------------------------------------------------------------ *)
(* EXN103 / EXN105: partial & stringly sites on live recovery paths    *)
(* ------------------------------------------------------------------ *)

let test_exn103_partial_on_live_path () =
  check_codes "List.hd in an exec entry" [ "EXN103" ]
    (scan [ ("lib/exec/fixture.ml", "let step xs = List.hd xs") ]);
  (* Reachability is interprocedural: the partial sits in a helper
     module, the entry point is in recovery/. *)
  let fs =
    scan
      [
        ("lib/recovery/driver.ml", "let run () = Helper.pick [ 1 ]");
        ("lib/util/helper.ml", "let pick xs = List.hd xs");
      ]
  in
  check_codes "partial reached from recovery entry" [ "EXN103" ] fs;
  (match flagged fs with
  | [ f ] ->
    Alcotest.(check string) "flagged in the helper" "lib/util/helper.ml"
      f.L.file;
    checkb "witness names the entry" true
      (let sub = "Driver.run" in
       let s = f.L.construct in
       let n = String.length s and m = String.length sub in
       let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
       go 0)
  | _ -> Alcotest.fail "expected exactly one finding");
  (* Unreachable from any entry: no finding. *)
  check_codes "partial in dead util code is clean" []
    (scan [ ("lib/util/helper.ml", "let pick xs = List.hd xs") ]);
  (* The explicit-match remediation is silent. *)
  check_codes "explicit match is clean" []
    (scan
       [
         ( "lib/exec/fixture.ml",
           "let step xs = match xs with [] -> invalid_arg \"empty\" \
            | x :: _ -> x" );
       ])

let test_exn105_failwith_on_live_path () =
  check_codes "failwith in a recovery entry" [ "EXN105" ]
    (scan [ ("lib/recovery/fixture.ml", "let run () = failwith \"boom\"") ]);
  check_codes "failwith in dead util code is clean" []
    (scan [ ("lib/util/fixture.ml", "let run () = failwith \"boom\"") ])

(* ------------------------------------------------------------------ *)
(* EXN104: backtrace-dropping re-raise                                 *)
(* ------------------------------------------------------------------ *)

let test_exn104_reraise () =
  check_codes "raise v drops the backtrace" [ "EXN104" ]
    (scan
       [
         ( "lib/core/fixture.ml",
           "let f () = try g () with e -> cleanup (); raise e" );
       ]);
  (* The remediation keeps the backtrace. *)
  check_codes "raise_with_backtrace is clean" []
    (scan
       [
         ( "lib/core/fixture.ml",
           "let f () =\n\
            \  try g () with e ->\n\
            \    let bt = Printexc.get_raw_backtrace () in\n\
            \    cleanup ();\n\
            \    Printexc.raise_with_backtrace e bt" );
       ])

(* ------------------------------------------------------------------ *)
(* RES101-RES104: resource pairing                                     *)
(* ------------------------------------------------------------------ *)

let test_res101_pin_without_unpin () =
  check_codes "pin with no unpin" [ "RES101" ]
    (scan
       [ ("lib/storage/scan.ml", "let f pool pid = Buffer_pool.pin pool pid") ]);
  check_codes "balanced pin/unpin is clean" []
    (scan
       [
         ( "lib/storage/scan.ml",
           "let f pool pid =\n\
            \  let frame = Buffer_pool.pin pool pid in\n\
            \  Buffer_pool.unpin pool pid;\n\
            \  frame" );
       ]);
  (* Inside Buffer_pool itself the rule is blind by design. *)
  check_codes "own module is exempt" []
    (scan
       [ ("lib/storage/buffer_pool.ml", "let reuse t pid = pin t pid") ])

let test_res102_acquire_without_release () =
  check_codes "acquire with no release-set call" [ "RES102" ]
    (scan
       [
         ( "lib/core/fixture.ml",
           "let f locks k = Lock_manager.acquire locks ~txn:1 ~key:k" );
       ]);
  check_codes "acquire + release_abort is clean" []
    (scan
       [
         ( "lib/core/fixture.ml",
           "let f locks k =\n\
            \  let g = Lock_manager.acquire locks ~txn:1 ~key:k in\n\
            \  Lock_manager.release_abort locks ~txn:1;\n\
            \  g" );
       ])

let test_res103_unprotected_span () =
  let fs =
    scan
      [
        ( "lib/storage/scan.ml",
          "let f pool pid =\n\
           \  let frame = Buffer_pool.pin pool pid in\n\
           \  if frame = Bytes.empty then invalid_arg \"empty\";\n\
           \  Buffer_pool.unpin pool pid" );
      ]
  in
  check_codes "raising site inside the span" [ "RES103" ] fs;
  (match flagged fs with
  | [ f ] -> checki "anchored at the pin" 2 f.L.line
  | _ -> Alcotest.fail "expected exactly one finding");
  (* Fun.protect is the remediation. *)
  check_codes "Fun.protect span is clean" []
    (scan
       [
         ( "lib/storage/scan.ml",
           "let f pool pid =\n\
            \  let frame = Buffer_pool.pin pool pid in\n\
            \  Fun.protect\n\
            \    ~finally:(fun () -> Buffer_pool.unpin pool pid)\n\
            \    (fun () -> if frame = Bytes.empty then invalid_arg \
            \"empty\")" );
       ])

let test_res104_release_without_acquire () =
  check_codes "unpin with no pin" [ "RES104" ]
    (scan
       [ ("lib/storage/scan.ml", "let u pool pid = Buffer_pool.unpin pool pid") ])

(* ------------------------------------------------------------------ *)
(* Whitelist, determinism, parse failure                               *)
(* ------------------------------------------------------------------ *)

let test_justification_whitelist () =
  let src =
    "(* exn_flow: fixture; release is the caller's job *)\n\
     let f pool pid = Buffer_pool.pin pool pid"
  in
  let fs = scan [ ("lib/storage/scan.ml", src) ] in
  check_codes "justified finding is not flagged" [] fs;
  (match fs with
  | [ { L.status = L.Justified why; _ } ] ->
    checkb "justification text echoed" true
      (why = "fixture; release is the caller's job")
  | _ -> Alcotest.fail "expected one whitelisted finding");
  (* Three or more lines away, the comment no longer applies. *)
  check_codes "distant comment does not silence" [ "RES101" ]
    (scan
       [
         ( "lib/storage/scan.ml",
           "(* exn_flow: too far away *)\n\n\n\
            let f pool pid = Buffer_pool.pin pool pid" );
       ])

let corpus =
  [
    ( "lib/storage/fixture.ml",
      "let risky d = raise (Fault.Io_error e)\n\
       let f d = try risky d with _ -> 0" );
    ("lib/recovery/driver.ml", "let run () = Helper.pick [ 1 ]");
    ("lib/util/helper.ml", "let pick xs = List.hd xs");
    ("lib/storage/scan.ml", "let u pool pid = Buffer_pool.unpin pool pid");
  ]

let test_determinism () =
  checkb "two scans agree" true (scan corpus = scan corpus);
  Alcotest.(check (list string))
    "all three defect classes found"
    [ "EXN101"; "EXN103"; "RES104" ]
    (codes (flagged (scan corpus)))

let test_parse_failure () =
  let findings, diags =
    L.analyze
      [
        ("lib/storage/bad.ml", "let = (");
        ("lib/storage/scan.ml", "let u pool pid = Buffer_pool.unpin pool pid");
        ("lib/storage/worse.mli", "val : (");
      ]
  in
  let findings = List.filter (fun (f : L.finding) -> exn f.L.code) findings in
  let diags = List.filter (fun (d : V.Diag.t) -> exn d.V.Diag.code) diags in
  checki "one diag per unparseable file" 2 (List.length diags);
  List.iter
    (fun (d : V.Diag.t) ->
      Alcotest.(check string) "code" "EXN100" d.V.Diag.code)
    diags;
  (* The rest of the sweep still runs. *)
  check_codes "parseable files still scanned" [ "RES104" ] findings

(* ------------------------------------------------------------------ *)
(* Pin/unpin under injected Io_error                                   *)
(* ------------------------------------------------------------------ *)

(* The dynamic counterpart of RES103: random pin/read/unpin spans, with
   the unpin in a Fun.protect finally as the lint demands, against a
   disk armed to raise Fault.Io_error past the retry budget.  The fault
   is caught at the top, and Pool_check must find no frame left
   pinned. *)
let test_pin_safety_under_io_error () =
  let module S = Mmdb_storage in
  let module F = Mmdb_fault in
  List.iter
    (fun seed ->
      let env = S.Env.create () in
      let disk = S.Disk.create ~env ~page_size:256 in
      let pids = Array.init 16 (fun _ -> S.Disk.alloc disk) in
      Array.iteri
        (fun i pid ->
          S.Disk.write disk ~mode:S.Disk.Seq pid
            (Bytes.make 256 (Char.chr (65 + (i mod 26)))))
        pids;
      (* Armed after seeding, so the transient failures hit only the
         pin-path reads. *)
      S.Disk.arm disk
        (F.Fault_plan.create ~seed
           [
             {
               F.Fault_plan.site = F.Fault.Disk_read;
               kind = F.Fault.Io_transient { failures = 10 };
               trigger = F.Fault_plan.Prob 0.25;
             };
           ]);
      let pool = S.Buffer_pool.create ~disk ~capacity:8 S.Buffer_pool.Lru in
      let rng = Mmdb_util.Xorshift.create (0x5eed + seed) in
      let io_errors = ref 0 in
      for _ = 1 to 200 do
        let pid = pids.(Mmdb_util.Xorshift.int rng 16) in
        match
          let frame = S.Buffer_pool.pin pool pid in
          Fun.protect
            ~finally:(fun () -> S.Buffer_pool.unpin pool pid)
            (fun () -> ignore (Bytes.get frame 0))
        with
        | () -> ()
        | exception F.Fault.Io_error _ -> incr io_errors
      done;
      checkb
        (Printf.sprintf "seed %d: the error path was hit" seed)
        true (!io_errors > 0);
      checkb
        (Printf.sprintf "seed %d: no frame left pinned" seed)
        false
        (V.Diag.has_errors (V.Pool_check.audit ~expect_unpinned:true pool)))
    [ 7; 11 ]

(* ------------------------------------------------------------------ *)
(* Repo sweep and catalogue plumbing                                   *)
(* ------------------------------------------------------------------ *)

(* The library must stay exception-clean: every finding fixed or
   justified. *)
let test_repo_sources_clean () =
  match L.scan_lib () with
  | Error m -> Alcotest.fail m
  | Ok (findings, parse_diags) ->
    let diags =
      List.filter
        (fun (d : V.Diag.t) -> exn d.V.Diag.code)
        (parse_diags @ L.diags_of_findings findings)
    in
    List.iter
      (fun (d : V.Diag.t) ->
        Printf.printf "unjustified: [%s] %s %s\n" d.V.Diag.code d.V.Diag.path
          d.V.Diag.message)
      diags;
    checkb "no unjustified exn-flow findings in lib/" false
      (V.Diag.has_errors diags)

let test_code_catalogue () =
  let cat = V.code_catalogue in
  List.iter
    (fun c ->
      checkb (c ^ " catalogued") true (List.mem_assoc c cat);
      checki (c ^ " unique") 1
        (List.length (List.filter (fun (c', _) -> c' = c) cat)))
    [
      "EXN100"; "EXN101"; "EXN102"; "EXN103"; "EXN104"; "EXN105";
      "RES101"; "RES102"; "RES103"; "RES104";
    ]

let () =
  Alcotest.run "exnflow"
    [
      ( "exn",
        [
          Alcotest.test_case "EXN101 catch-all swallow" `Quick
            test_exn101_catch_all;
          Alcotest.test_case "EXN101 partial lookup" `Quick test_exn101_lookup;
          Alcotest.test_case "EXN102 undeclared escape" `Quick
            test_exn102_undeclared_escape;
          Alcotest.test_case "EXN103 partial on live path" `Quick
            test_exn103_partial_on_live_path;
          Alcotest.test_case "EXN104 backtrace-dropping re-raise" `Quick
            test_exn104_reraise;
          Alcotest.test_case "EXN105 failwith on live path" `Quick
            test_exn105_failwith_on_live_path;
        ] );
      ( "res",
        [
          Alcotest.test_case "RES101 pin without unpin" `Quick
            test_res101_pin_without_unpin;
          Alcotest.test_case "RES102 acquire without release" `Quick
            test_res102_acquire_without_release;
          Alcotest.test_case "RES103 unprotected span" `Quick
            test_res103_unprotected_span;
          Alcotest.test_case "RES104 release without acquire" `Quick
            test_res104_release_without_acquire;
          Alcotest.test_case "pins released under injected Io_error" `Quick
            test_pin_safety_under_io_error;
        ] );
      ( "policy",
        [
          Alcotest.test_case "justification whitelist" `Quick
            test_justification_whitelist;
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "parse failure (EXN100)" `Quick
            test_parse_failure;
          Alcotest.test_case "repo sources clean" `Quick
            test_repo_sources_clean;
          Alcotest.test_case "code catalogue" `Quick test_code_catalogue;
        ] );
    ]
