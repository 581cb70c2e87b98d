(* mmdb_bench: the repository benchmark.

     mmdb_bench [--seed N] [--trace 0|1] [--out FILE]
     mmdb_bench --workload W [--seed N] [--trace 0|1]
     mmdb_bench --smoke [--spec BENCHMARK.json]
     mmdb_bench compare A.json B.json [--spec BENCHMARK.json]

   Without --workload every workload runs in a child process of its own
   (this executable again, with --workload), so one workload's heap and
   GC state cannot leak into the next.  A --workload run prints each
   metric by name with its unit, then a detail line, then one JSON
   result line: {"correct", "attempted", "failed", "metrics"}.

   A run does a fixed amount of work, whatever its speed.  [--seconds S]
   is accepted, for harnesses that pass a run length, and ignored. *)

let workloads =
  [ ("oltp", Oltp.run); ("olap", Olap.run); ("point-mix", Point_mix.run); ("recovery", Recovery.run) ]

type opts = {
  mutable seed : int;
  mutable trace : bool;
  mutable workload : string option;
  mutable out : string option;
  mutable smoke : bool;
  mutable spec : string;
  mutable positional : string list;
}

let usage () =
  prerr_endline
    "usage: mmdb_bench [--workload W] [--seed N] [--trace 0|1] [--out FILE] [--smoke] \
     [--spec FILE]\n\
    \       mmdb_bench compare A.json B.json [--spec FILE]";
  exit 2

let parse_args argv =
  let o =
    {
      seed = 1;
      trace = false;
      workload = None;
      out = None;
      smoke = false;
      spec = "BENCHMARK.json";
      positional = [];
    }
  in
  let rec go = function
    | [] -> ()
    | "--seed" :: n :: rest ->
      o.seed <- (match int_of_string_opt n with Some n -> n | None -> usage ());
      go rest
    | "--seconds" :: _ :: rest -> go rest
    | "--trace" :: ("0" | "1" as t) :: rest ->
      o.trace <- t = "1";
      go rest
    | "--workload" :: w :: rest ->
      if not (List.mem_assoc w workloads) then begin
        Printf.eprintf "unknown workload %S\n" w;
        usage ()
      end;
      o.workload <- Some w;
      go rest
    | "--out" :: f :: rest ->
      o.out <- Some f;
      go rest
    | "--spec" :: f :: rest ->
      o.spec <- f;
      go rest
    | "--smoke" :: rest ->
      o.smoke <- true;
      go rest
    | a :: rest when String.length a > 0 && a.[0] <> '-' ->
      o.positional <- o.positional @ [ a ];
      go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list argv));
  o

(* ------------------------------------------------------------------ *)
(* One workload, in this process                                       *)
(* ------------------------------------------------------------------ *)

let detail_prefix = "{\"detail\":"

let run_one o name =
  let cfg =
    {
      Bench.seed = o.seed;
      smoke = o.smoke;
      traced = o.trace;
      out_dir = (if o.trace && not o.smoke then Some "bench/perf/out" else None);
    }
  in
  let run = List.assoc name workloads in
  let (r : Bench.outcome) =
    try run cfg
    with e ->
      Printf.eprintf "%s: %s\n%!" name (Printexc.to_string e);
      { Bench.attempted = 1; failed = 1; metrics = []; detail = [] }
  in
  let finite = List.for_all (fun (m : Bench.metric) -> Float.is_finite m.value) r.metrics in
  let correct = r.failed = 0 && r.metrics <> [] && finite in
  List.iter
    (fun (m : Bench.metric) -> Printf.printf "%s %s %s %s\n" name m.name (Json.number m.value) m.unit_)
    r.metrics;
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ( "detail",
              Json.Obj
                (("workload", Json.Str name)
                :: ("seed", Bench.count o.seed)
                :: ("trace", Json.Bool o.trace)
                :: ("domains_available", Json.Bool Mmdb_recovery.Domain_runner.available)
                :: r.detail) );
          ]));
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Bench.count r.attempted);
            ("failed", Bench.count r.failed);
            ("metrics", Bench.metrics_json r.metrics);
          ]));
  exit (if correct then 0 else 1)

(* ------------------------------------------------------------------ *)
(* Every workload, one child process each                              *)
(* ------------------------------------------------------------------ *)

type child = { ok : bool; result : Json.t; detail : Json.t }

let run_child o name ~trace =
  let args =
    [
      Sys.executable_name; "--workload"; name; "--seed"; string_of_int o.seed;
      "--trace"; (if trace then "1" else "0");
    ]
    @ if o.smoke then [ "--smoke" ] else []
  in
  let ic = Unix.open_process_args_in Sys.executable_name (Array.of_list args) in
  let rec lines acc =
    match input_line ic with l -> lines (l :: acc) | exception End_of_file -> acc
  in
  let rev = lines [] in
  let status = Unix.close_process_in ic in
  let parse l = try Json.parse l with Json.Parse_error _ -> Json.Null in
  let detail =
    match List.find_opt (fun l -> String.starts_with ~prefix:detail_prefix l) rev with
    | Some l -> Option.value ~default:Json.Null (Json.member "detail" (parse l))
    | None -> Json.Null
  in
  if not o.smoke then List.iter print_endline (List.rev rev);
  let result = match rev with l :: _ -> parse l | [] -> Json.Null in
  { ok = status = Unix.WEXITED 0; result; detail }

let shell_line cmd =
  match Unix.open_process_in cmd with
  | ic ->
    let l = try input_line ic with End_of_file -> "unknown" in
    ignore (Unix.close_process_in ic);
    l
  | exception Unix.Unix_error _ -> "unknown"

let run_record o name ~trace c =
  Json.Obj
    [
      ("workload", Json.Str name);
      ("seed", Bench.count o.seed);
      ("trace", Json.Bool trace);
      ("ok", Json.Bool c.ok);
      ("result", c.result);
      ("detail", c.detail);
    ]

(* Append this run's records to a result set: {"meta", "runs"}. *)
let append_out path records =
  let previous =
    if not (Sys.file_exists path) then []
    else Json.to_list (Option.value ~default:Json.Null (Json.member "runs" (Json.read_file path)))
  in
  let meta =
    Json.Obj
      [
        ("nproc", Json.Str (shell_line "getconf _NPROCESSORS_ONLN"));
        ("ocaml", Json.Str Sys.ocaml_version);
        ("commit", Json.Str (shell_line "git describe --always --dirty 2>/dev/null"));
      ]
  in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc
        (Json.to_string (Json.Obj [ ("meta", meta); ("runs", Json.Arr (previous @ records)) ]));
      output_char oc '\n')

let run_all o =
  let results = List.map (fun (name, _) -> (name, run_child o name ~trace:o.trace)) workloads in
  let failed =
    List.filter
      (fun (_, c) ->
        (not c.ok) || Json.member "correct" c.result <> Some (Json.Bool true))
      results
  in
  Option.iter
    (fun path -> append_out path (List.map (fun (n, c) -> run_record o n ~trace:o.trace c) results))
    o.out;
  List.iter (fun (n, _) -> Printf.eprintf "FAILED: %s\n" n) failed;
  exit (if failed = [] then 0 else 1)

(* ------------------------------------------------------------------ *)
(* BENCHMARK.json                                                      *)
(* ------------------------------------------------------------------ *)

type declared = { d_name : string; d_unit : string; d_lower : bool; d_bound : float }

let declared spec key =
  List.map
    (fun m ->
      let str k = Option.bind (Json.member k m) Json.to_str |> Option.value ~default:"" in
      {
        d_name = str "name";
        d_unit = str "unit";
        d_lower = str "better" = "lower";
        d_bound = Option.bind (Json.member "bound" m) Json.to_num |> Option.value ~default:0.0;
      })
    (Json.to_list (Option.value ~default:Json.Null (Json.member key spec)))

let metric_of result name =
  Option.bind (Json.member "metrics" result) (Json.member name)

let metric_value result name =
  Option.bind (Option.bind (metric_of result name) (Json.member "value")) Json.to_num

(* ------------------------------------------------------------------ *)
(* --smoke                                                             *)
(* ------------------------------------------------------------------ *)

let smoke o =
  let spec = Json.read_file o.spec in
  let e2e = declared spec "end_to_end" and layers = declared spec "per_layer" in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let check_declared name c ds =
    if not c.ok then problem "%s: run failed" name;
    List.iter
      (fun d ->
        match metric_of c.result d.d_name with
        | None -> problem "%s: metric %s missing" name d.d_name
        | Some m ->
          if Option.bind (Json.member "unit" m) Json.to_str <> Some d.d_unit then
            problem "%s: metric %s has the wrong unit" name d.d_name;
          (match metric_value c.result d.d_name with
          | Some v when Float.is_finite v -> ()
          | Some _ | None -> problem "%s: metric %s is not a finite number" name d.d_name))
      ds
  in
  (* Counted work repeats exactly; runtime counters (gc.…) need not. *)
  let exact_layer d = d.d_unit = "count" && not (String.starts_with ~prefix:"gc." d.d_name) in
  List.iter
    (fun (name, _) ->
      let before = List.length !problems in
      let a = run_child o name ~trace:false and b = run_child o name ~trace:false in
      check_declared name a e2e;
      check_declared name b e2e;
      if Json.member "exact" a.detail = None || Json.member "exact" a.detail <> Json.member "exact" b.detail
      then problem "%s: exact metrics differ between two runs at one seed" name;
      let ta = run_child o name ~trace:true and tb = run_child o name ~trace:true in
      check_declared name ta layers;
      check_declared name tb layers;
      List.iter
        (fun d ->
          if exact_layer d && metric_value ta.result d.d_name <> metric_value tb.result d.d_name then
            problem "%s: counter %s differs between two traced runs" name d.d_name)
        layers;
      Printf.printf "smoke %s: %s\n%!" name (if List.length !problems = before then "ok" else "FAILED"))
    workloads;
  List.iter (fun p -> Printf.printf "FAIL %s\n" p) (List.rev !problems);
  exit (if !problems = [] then 0 else 1)

(* ------------------------------------------------------------------ *)
(* compare A B                                                         *)
(* ------------------------------------------------------------------ *)

type verdict = Worse | Better | Unchanged | Unresolved

let verdict_name = function
  | Worse -> "worse"
  | Better -> "better"
  | Unchanged -> "unchanged"
  | Unresolved -> "unresolved"

(* Judge B against A under [bound]: a spread (quartile distance over the
   median) wider than the bound on either side leaves the metric
   unresolved, unless every run of B beats every run of A. *)
let median xs = Mmdb_util.Stats.percentile xs 0.5

let judge d a b =
  let ma = median a and mb = median b in
  let spread xs m =
    let q1, q3 = Summary.quartiles xs in
    (q3 -. q1) /. Float.abs m
  in
  let worse_by = (if d.d_lower then mb -. ma else ma -. mb) /. Float.abs ma in
  let all_better =
    if d.d_lower then Array.fold_left Float.max neg_infinity b < Array.fold_left Float.min infinity a
    else Array.fold_left Float.min infinity b > Array.fold_left Float.max neg_infinity a
  in
  if spread a ma > d.d_bound || spread b mb > d.d_bound then
    if all_better then Better else Unresolved
  else if worse_by > d.d_bound then Worse
  else if worse_by < -.d.d_bound then Better
  else Unchanged

let compare_sets o a_path b_path =
  let spec = Json.read_file o.spec in
  let e2e = declared spec "end_to_end" in
  let runs path =
    List.filter
      (fun r -> Json.member "trace" r = Some (Json.Bool false))
      (Json.to_list (Option.value ~default:Json.Null (Json.member "runs" (Json.read_file path))))
  in
  let ra = runs a_path and rb = runs b_path in
  let of_workload name rs =
    List.filter (fun r -> Json.member "workload" r = Some (Json.Str name)) rs
  in
  let values rs f = Array.of_list (List.filter_map f rs) in
  let any_worse = ref false in
  Printf.printf "%-18s %-16s %14s %23s %14s %23s %8s  %s\n" "workload" "metric" "A median"
    "A quartiles" "B median" "B quartiles" "change" "verdict";
  List.iter
    (fun (name, _) ->
      let wa = of_workload name ra and wb = of_workload name rb in
      List.iter
        (fun d ->
          let get r = Option.bind (Json.member "result" r) (fun res -> metric_value res d.d_name) in
          let a = values wa get and b = values wb get in
          if Array.length a > 0 && Array.length b > 0 then begin
            let v = judge d a b in
            if v = Worse then any_worse := true;
            let q1a, q3a = Summary.quartiles a and q1b, q3b = Summary.quartiles b in
            let ma = median a and mb = median b in
            Printf.printf "%-18s %-16s %14.6g [%10.6g,%10.6g] %14.6g [%10.6g,%10.6g] %+7.2f%%  %s\n"
              name d.d_name ma q1a q3a mb q1b q3b (100.0 *. (mb -. ma) /. ma) (verdict_name v)
          end)
        e2e;
      (* Simulated and counted values: equal or not. *)
      let exact rs = List.filter_map (fun r -> Option.bind (Json.member "detail" r) (Json.member "exact")) rs in
      let ea = exact wa and eb = exact wb in
      (match (ea, eb) with
      | x :: _, y :: _ ->
        let same = List.for_all (( = ) x) ea && List.for_all (( = ) y) eb && x = y in
        if not same then any_worse := true;
        Printf.printf "%-18s %-16s %s\n" name "exact" (if same then "identical" else "DIFFER")
      | _ -> ()))
    workloads;
  exit (if !any_worse then 1 else 0)

let () =
  let o = parse_args Sys.argv in
  match (o.positional, o.workload) with
  | [ "compare"; a; b ], None -> compare_sets o a b
  | [], Some name -> run_one o name
  | [], None -> if o.smoke then smoke o else run_all o
  | _ -> usage ()
