(* Tests for Mmdb_planner: algebra, catalog statistics, selectivity
   estimation, the Section 4 optimizer (selection pushdown, build-side
   choice, algorithm choice vs memory), and plan execution. *)

module S = Mmdb_storage
module E = Mmdb_exec
module P = Mmdb_planner
module A = P.Algebra
module U = Mmdb_util

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

(* A small star schema: employees and departments. *)
let emp_schema () =
  S.Schema.create ~key:"id"
    [
      S.Schema.column "id" S.Schema.Int;
      S.Schema.column "dept" S.Schema.Int;
      S.Schema.column "salary" S.Schema.Int;
    ]

let dept_schema () =
  S.Schema.create ~key:"dept_id"
    [
      S.Schema.column "dept_id" S.Schema.Int;
      S.Schema.column "budget" S.Schema.Int;
    ]

let setup ?(n_emp = 200) ?(n_dept = 10) () =
  let env = S.Env.create () in
  let disk = S.Disk.create ~env ~page_size:512 in
  let rng = U.Xorshift.create 42 in
  let emp =
    S.Relation.of_tuples ~disk ~name:"emp" ~schema:(emp_schema ())
      (List.init n_emp (fun i ->
           S.Tuple.encode (emp_schema ())
             [
               S.Tuple.VInt i;
               S.Tuple.VInt (U.Xorshift.int rng n_dept);
               S.Tuple.VInt (30_000 + U.Xorshift.int rng 70_000);
             ]))
  in
  let dept =
    S.Relation.of_tuples ~disk ~name:"dept" ~schema:(dept_schema ())
      (List.init n_dept (fun i ->
           S.Tuple.encode (dept_schema ())
             [ S.Tuple.VInt i; S.Tuple.VInt (100_000 * (i + 1)) ]))
  in
  let cat = P.Catalog.create () in
  P.Catalog.register cat emp;
  P.Catalog.register cat dept;
  (env, disk, cat)

let cfg = P.Optimizer.default_config

(* ------------------------------------------------------------------ *)
(* Algebra                                                             *)
(* ------------------------------------------------------------------ *)

let test_predicate_eval () =
  let sch = emp_schema () in
  let tup =
    S.Tuple.encode sch
      [ S.Tuple.VInt 7; S.Tuple.VInt 3; S.Tuple.VInt 50_000 ]
  in
  let pred op v = { A.column = "salary"; A.op; A.value = S.Tuple.VInt v } in
  checkb "eq hit" true (A.eval_predicate sch (pred A.Eq 50_000) tup);
  checkb "eq miss" false (A.eval_predicate sch (pred A.Eq 1) tup);
  checkb "lt" true (A.eval_predicate sch (pred A.Lt 60_000) tup);
  checkb "ge" true (A.eval_predicate sch (pred A.Ge 50_000) tup);
  checkb "ne" true (A.eval_predicate sch (pred A.Ne 1) tup)

let test_predicate_type_mismatch () =
  let sch = emp_schema () in
  let tup =
    S.Tuple.encode sch [ S.Tuple.VInt 1; S.Tuple.VInt 1; S.Tuple.VInt 1 ]
  in
  checkb "mismatch raises" true
    (try
       ignore
         (A.eval_predicate sch
            { A.column = "salary"; A.op = A.Eq; A.value = S.Tuple.VStr "x" }
            tup);
       false
     with Invalid_argument _ -> true)

let test_base_relations () =
  let e =
    A.join ~left_key:"dept" ~right_key:"dept_id"
      (A.select ~column:"salary" ~op:A.Gt ~value:(S.Tuple.VInt 0)
         (A.scan "emp"))
      (A.scan "dept")
  in
  Alcotest.(check (list string)) "bases" [ "emp"; "dept" ] (A.base_relations e)

(* ------------------------------------------------------------------ *)
(* Catalog                                                             *)
(* ------------------------------------------------------------------ *)

let test_catalog_stats () =
  let _, _, cat = setup () in
  let ts = P.Catalog.stats cat "emp" in
  checki "ntuples" 200 ts.P.Catalog.ntuples;
  let dept_col = P.Catalog.column_stats cat ~table:"emp" ~column:"dept" in
  checki "dept distinct" 10 dept_col.P.Catalog.ndistinct;
  checkb "dept min" true (dept_col.P.Catalog.min_int = Some 0);
  checkb "dept max" true (dept_col.P.Catalog.max_int = Some 9);
  let id_col = P.Catalog.column_stats cat ~table:"emp" ~column:"id" in
  checki "ids unique" 200 id_col.P.Catalog.ndistinct

let test_catalog_unknown () =
  let _, _, cat = setup () in
  checkb "unknown table" true
    (try
       ignore (P.Catalog.find cat "nope");
       false
     with Not_found -> true);
  checkb "mem" true (P.Catalog.mem cat "emp");
  checkb "not mem" false (P.Catalog.mem cat "nope")

(* Statistics recomputed by brute force from the decoded rows. *)
let reference_stats rel =
  let schema = S.Relation.schema rel in
  let rows = P.Executor.rows rel in
  {
    P.Catalog.ntuples = List.length rows;
    npages = S.Relation.npages rel;
    columns =
      List.mapi
        (fun i (c : S.Schema.column) ->
          let values = List.map (fun row -> List.nth row i) rows in
          let ints =
            Array.of_list
              (List.sort compare
                 (List.filter_map
                    (function S.Tuple.VInt v -> Some v | S.Tuple.VStr _ -> None)
                    values))
          in
          let n = Array.length ints in
          ( c.S.Schema.name,
            {
              P.Catalog.ndistinct = List.length (List.sort_uniq compare values);
              min_int = (if n = 0 then None else Some ints.(0));
              max_int = (if n = 0 then None else Some ints.(n - 1));
              quantiles =
                (if n = 0 then None
                 else Some (Array.init 15 (fun q -> ints.(min (n - 1) ((q + 1) * n / 16)))));
            } ))
        (S.Schema.columns schema);
  }

type stats_op = Append of (int * int) list | Seal | Register | Refresh | Read

let show_stats_op = function
  | Append rows -> Printf.sprintf "append %d" (List.length rows)
  | Seal -> "seal"
  | Register -> "register"
  | Refresh -> "refresh"
  | Read -> "read"

let qcheck_catalog_stats_incremental =
  let schema =
    S.Schema.create ~key:"k"
      [
        S.Schema.column "k" S.Schema.Int;
        S.Schema.column "g" S.Schema.Int;
        S.Schema.column ~width:4 "s" S.Schema.Fixed_string;
      ]
  in
  let op =
    QCheck.Gen.(
      frequency
        [
          ( 4,
            list_size (int_range 0 12) (pair (int_range (-50) 50) (int_range 0 5))
            >|= fun rows -> Append rows );
          (1, return Seal);
          (2, return Register);
          (2, return Refresh);
          (2, return Read);
        ])
  in
  QCheck.Test.make ~name:"incremental catalog stats equal a full computation"
    ~count:150
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map show_stats_op ops))
       QCheck.Gen.(list_size (int_range 1 25) op))
    (fun ops ->
      let env = S.Env.create () in
      let disk = S.Disk.create ~env ~page_size:128 in
      let rel = S.Relation.create ~disk ~name:"t" ~schema in
      let cat = P.Catalog.create () in
      P.Catalog.register cat rel;
      (* Statistics describe the relation as of its last registration. *)
      let expected = ref (reference_stats rel) in
      let agrees () =
        P.Catalog.stats cat "t" = !expected
        && List.for_all
             (fun (name, (cs : P.Catalog.column_stats)) ->
               P.Catalog.int_bounds cat ~table:"t" ~column:name
               = Option.bind cs.P.Catalog.min_int (fun lo ->
                     Option.map (fun hi -> (lo, hi)) cs.P.Catalog.max_int))
             !expected.P.Catalog.columns
      in
      List.for_all
        (fun op ->
          match op with
          | Append rows ->
            List.iter
              (fun (k, g) ->
                S.Relation.append_nocharge rel
                  (S.Tuple.encode schema
                     [ S.Tuple.VInt k; S.Tuple.VInt g; S.Tuple.VStr (string_of_int (k mod 7)) ]))
              rows;
            true
          | Seal ->
            S.Relation.seal rel;
            true
          | Register | Refresh ->
            if op = Register then P.Catalog.register cat rel else P.Catalog.refresh cat "t";
            expected := reference_stats rel;
            agrees ()
          | Read -> agrees ())
        ops)

(* ------------------------------------------------------------------ *)
(* Selectivity                                                         *)
(* ------------------------------------------------------------------ *)

let feq ?(eps = 1e-6) name a b =
  checkb (Printf.sprintf "%s: %g ~= %g" name a b) true (Float.abs (a -. b) <= eps)

let test_selectivity_scan () =
  let _, _, cat = setup () in
  feq "scan = ntuples" 200.0 (P.Selectivity.estimate cat (A.scan "emp"))

let test_selectivity_eq () =
  let _, _, cat = setup () in
  let e =
    A.select ~column:"dept" ~op:A.Eq ~value:(S.Tuple.VInt 3) (A.scan "emp")
  in
  feq "eq = n/ndistinct" 20.0 (P.Selectivity.estimate cat e)

let test_selectivity_range () =
  let _, _, cat = setup () in
  let e =
    A.select ~column:"dept" ~op:A.Lt ~value:(S.Tuple.VInt 5) (A.scan "emp")
  in
  let est = P.Selectivity.estimate cat e in
  (* True answer ~100 (uniform depts 0..9); the equi-depth histogram on a
     ten-value domain is coarse, so accept a generous band. *)
  checkb (Printf.sprintf "range est %.0f in [60,140]" est) true
    (est >= 60.0 && est <= 140.0)

let test_selectivity_histogram_skew () =
  (* Heavily skewed column: 90% of values are 0, the rest spread to 1000.
     Min/max interpolation would put sel(< 500) near 0.5; the equi-depth
     histogram knows better. *)
  let env = S.Env.create () in
  let disk = S.Disk.create ~env ~page_size:512 in
  let schema =
    S.Schema.create ~key:"k" [ S.Schema.column "k" S.Schema.Int ]
  in
  let rel =
    S.Relation.of_tuples ~disk ~name:"skew" ~schema
      (List.init 1000 (fun i ->
           S.Tuple.encode schema
             [ S.Tuple.VInt (if i < 900 then 0 else (i - 899) * 10) ]))
  in
  let cat = P.Catalog.create () in
  P.Catalog.register cat rel;
  let cs = P.Catalog.column_stats cat ~table:"skew" ~column:"k" in
  checkb "quantiles present" true (cs.P.Catalog.quantiles <> None);
  let est =
    P.Selectivity.estimate cat
      (A.select ~column:"k" ~op:A.Gt ~value:(S.Tuple.VInt 500) (A.scan "skew"))
  in
  (* True answer: values > 500 are (i-899)*10 > 500, i.e. i > 949: 50
     tuples.  The histogram estimate must be far below min/max's ~500. *)
  checkb (Printf.sprintf "skew-aware estimate %.0f < 130" est) true
    (est < 130.0);
  checkb "and nonzero" true (est > 0.0)

let test_selectivity_join () =
  let _, _, cat = setup () in
  let e =
    A.join ~left_key:"dept" ~right_key:"dept_id" (A.scan "emp")
      (A.scan "dept")
  in
  (* 200 * 10 / max(10, 10) = 200: every employee matches one dept. *)
  feq "fk join" 200.0 (P.Selectivity.estimate cat e)

let test_selectivity_aggregate () =
  let _, _, cat = setup () in
  let e =
    A.aggregate ~group_by:"dept" ~aggs:[ E.Aggregate.Count ] (A.scan "emp")
  in
  feq "groups = distinct depts" 10.0 (P.Selectivity.estimate cat e)

let test_selectivity_aggregate_over_join () =
  (* A join prefixes its columns r_/s_; the group estimate resolves the
     prefix on its side and reads the catalog's distinct count. *)
  let _, _, cat = setup () in
  let grouped column =
    A.aggregate ~group_by:column ~aggs:[ E.Aggregate.Count ]
      (A.join ~left_key:"dept" ~right_key:"dept_id" (A.scan "emp") (A.scan "dept"))
  in
  let distinct table column =
    float_of_int (P.Catalog.column_stats cat ~table ~column).P.Catalog.ndistinct
  in
  feq "r_dept = emp.dept distinct" (distinct "emp" "dept")
    (P.Selectivity.estimate cat (grouped "r_dept"));
  feq "s_budget = dept.budget distinct" (distinct "dept" "budget")
    (P.Selectivity.estimate cat (grouped "s_budget"))

let test_selectivity_set_op () =
  (* A set operation is sized by each side's distinct tuples, capped by
     the cardinality of its columns: emp's 10 departments and dept's 10
     ids make 10 groups, not their 20 (nor 200 + 10 rows). *)
  let _, _, cat = setup () in
  let set op =
    A.set_op op
      (A.project ~distinct:true ~columns:[ "dept" ] (A.scan "emp"))
      (A.project ~columns:[ "dept_id" ] (A.scan "dept"))
  in
  List.iter
    (fun (name, op) -> feq name 10.0 (P.Selectivity.estimate cat (set op)))
    [ ("union", A.Union); ("intersect", A.Intersect); ("except", A.Except) ]

(* ------------------------------------------------------------------ *)
(* Optimizer                                                           *)
(* ------------------------------------------------------------------ *)

let test_output_schema_join_prefixes () =
  let _, _, cat = setup () in
  let e =
    A.join ~left_key:"dept" ~right_key:"dept_id" (A.scan "emp")
      (A.scan "dept")
  in
  let schema = P.Optimizer.output_schema cat e in
  let names =
    List.map (fun (c : S.Schema.column) -> c.S.Schema.name)
      (S.Schema.columns schema)
  in
  Alcotest.(check (list string))
    "prefixed columns"
    [ "r_id"; "r_dept"; "r_salary"; "s_dept_id"; "s_budget" ]
    names

let test_pushdown_below_join () =
  let _, _, cat = setup () in
  let e =
    A.select ~column:"r_salary" ~op:A.Gt ~value:(S.Tuple.VInt 60_000)
      (A.join ~left_key:"dept" ~right_key:"dept_id" (A.scan "emp")
         (A.scan "dept"))
  in
  let plan = P.Optimizer.plan cat cfg e in
  (* The selection must sit below the join after planning. *)
  (match plan with
  | P.Optimizer.P_join { left = P.Optimizer.P_filter { pred; _ }; _ } ->
    checks "pushed predicate column" "salary" pred.A.column
  | P.Optimizer.P_join _ -> Alcotest.fail "selection not pushed to left input"
  | _ -> Alcotest.fail "top of plan should be the join")

let test_build_side_is_smaller () =
  let _, _, cat = setup () in
  (* dept (10 rows) is smaller: joining emp x dept must build on dept
     (swapped, since dept is the right input). *)
  let e =
    A.join ~left_key:"dept" ~right_key:"dept_id" (A.scan "emp")
      (A.scan "dept")
  in
  match P.Optimizer.plan cat cfg e with
  | P.Optimizer.P_join { choice; _ } ->
    checkb "swapped to build on dept" true choice.P.Optimizer.swapped;
    checkb "build smaller than probe" true
      (choice.P.Optimizer.est_build_pages <= choice.P.Optimizer.est_probe_pages)
  | _ -> Alcotest.fail "expected join plan"

let test_algorithm_choice_hash_with_memory () =
  let _, _, cat = setup () in
  let e =
    A.join ~left_key:"dept" ~right_key:"dept_id" (A.scan "emp")
      (A.scan "dept")
  in
  (match P.Optimizer.plan cat { cfg with P.Optimizer.mem_pages = 4096 } e with
  | P.Optimizer.P_join { choice; _ } ->
    checkb "hash family chosen" true
      (match choice.P.Optimizer.algorithm with
      | E.Joiner.Hybrid_hash_join | E.Joiner.Simple_hash_join -> true
      | _ -> false)
  | _ -> Alcotest.fail "expected join");
  (* Hash forbidden: must fall back to sort-merge. *)
  match
    P.Optimizer.plan cat { cfg with P.Optimizer.allow_hash = false } e
  with
  | P.Optimizer.P_join { choice; _ } ->
    checkb "sort-merge when hash disabled" true
      (choice.P.Optimizer.algorithm = E.Joiner.Sort_merge_join)
  | _ -> Alcotest.fail "expected join"

let test_hash_plan_cheaper_than_sort_plan () =
  let _, _, cat = setup ~n_emp:2000 () in
  let e =
    A.join ~left_key:"dept" ~right_key:"dept_id" (A.scan "emp")
      (A.scan "dept")
  in
  let hash_cost =
    P.Optimizer.estimated_cost (P.Optimizer.plan cat cfg e)
  in
  let sort_cost =
    P.Optimizer.estimated_cost
      (P.Optimizer.plan cat { cfg with P.Optimizer.allow_hash = false } e)
  in
  checkb
    (Printf.sprintf "hash %.4g <= sort %.4g" hash_cost sort_cost)
    true (hash_cost <= sort_cost)

let contains_substring haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let test_explain_mentions_algorithm () =
  let _, _, cat = setup () in
  let e =
    A.join ~left_key:"dept" ~right_key:"dept_id" (A.scan "emp")
      (A.scan "dept")
  in
  let s = P.Optimizer.explain (P.Optimizer.plan cat cfg e) in
  checkb "mentions join" true (contains_substring s "join");
  checkb "mentions scan emp" true (contains_substring s "scan emp");
  checkb "mentions an estimate" true (contains_substring s "est=")

(* ------------------------------------------------------------------ *)
(* Executor                                                            *)
(* ------------------------------------------------------------------ *)

let int_rows rel =
  List.map
    (List.map (function
      | S.Tuple.VInt v -> v
      | S.Tuple.VStr _ -> Alcotest.fail "unexpected string"))
    (P.Executor.rows rel)

let test_execute_scan () =
  let _, _, cat = setup ~n_emp:5 () in
  let out = P.Executor.query cat cfg (A.scan "dept") in
  checki "10 departments" 10 (S.Relation.ntuples out)

let test_execute_filter () =
  let _, _, cat = setup () in
  let out =
    P.Executor.query cat cfg
      (A.select ~column:"dept" ~op:A.Eq ~value:(S.Tuple.VInt 3)
         (A.scan "emp"))
  in
  let rows = int_rows out in
  checkb "nonempty" true (rows <> []);
  List.iter (fun row -> checki "dept=3" 3 (List.nth row 1)) rows

let test_execute_join_matches_oracle () =
  let _, _, cat = setup () in
  let e =
    A.join ~left_key:"dept" ~right_key:"dept_id" (A.scan "emp")
      (A.scan "dept")
  in
  let out = P.Executor.query cat cfg e in
  (* Every employee joins exactly one department. *)
  checki "200 result rows" 200 (S.Relation.ntuples out);
  let rows = int_rows out in
  List.iter
    (fun row ->
      match row with
      | [ _id; dept; _salary; dept_id; budget ] ->
        checki "join key matches" dept dept_id;
        checki "budget consistent" (100_000 * (dept_id + 1)) budget
      | _ -> Alcotest.fail "arity")
    rows

let test_execute_join_all_algorithms_same_result () =
  let _, _, cat = setup () in
  let e =
    A.join ~left_key:"dept" ~right_key:"dept_id" (A.scan "emp")
      (A.scan "dept")
  in
  let run_with_mem m =
    let out =
      P.Executor.query cat { cfg with P.Optimizer.mem_pages = m } e
    in
    List.sort compare (int_rows out)
  in
  let reference = run_with_mem 4096 in
  List.iter
    (fun m -> Alcotest.(check (list (list int))) "same rows" reference (run_with_mem m))
    [ 4; 16; 64 ]

let test_execute_filter_above_join () =
  let _, _, cat = setup () in
  let e =
    A.select ~column:"s_budget" ~op:A.Ge ~value:(S.Tuple.VInt 500_000)
      (A.join ~left_key:"dept" ~right_key:"dept_id" (A.scan "emp")
         (A.scan "dept"))
  in
  let rows = int_rows (P.Executor.query cat cfg e) in
  checkb "nonempty" true (rows <> []);
  List.iter
    (fun row -> checkb "budget filter" true (List.nth row 4 >= 500_000))
    rows

let test_execute_aggregate () =
  let _, _, cat = setup () in
  let e =
    A.aggregate ~group_by:"dept"
      ~aggs:[ E.Aggregate.Count; E.Aggregate.Sum "salary" ]
      (A.scan "emp")
  in
  let rows = int_rows (P.Executor.query cat cfg e) in
  checki "10 groups" 10 (List.length rows);
  let total = List.fold_left (fun a row -> a + List.nth row 1) 0 rows in
  checki "counts sum to 200" 200 total

let test_execute_project_distinct () =
  let _, _, cat = setup () in
  let e = A.project ~distinct:true ~columns:[ "dept" ] (A.scan "emp") in
  let rows = int_rows (P.Executor.query cat cfg e) in
  checki "10 distinct departments" 10 (List.length rows)

let test_execute_order_by () =
  let _, _, cat = setup () in
  let sorted_salaries descending =
    List.map
      (fun row -> List.nth row 2)
      (int_rows
         (P.Executor.query cat cfg
            (A.order_by ~descending ~column:"salary" (A.scan "emp"))))
  in
  let asc = sorted_salaries false in
  let desc = sorted_salaries true in
  Alcotest.(check (list int)) "ascending" (List.sort compare asc) asc;
  Alcotest.(check (list int)) "descending is reverse" (List.rev asc) desc;
  checki "no rows lost" 200 (List.length asc)

let test_execute_order_by_above_aggregate () =
  let _, _, cat = setup () in
  let rows =
    int_rows
      (P.Executor.query cat cfg
         (A.order_by ~descending:true ~column:"count"
            (A.aggregate ~group_by:"dept" ~aggs:[ E.Aggregate.Count ]
               (A.scan "emp"))))
  in
  let counts = List.map (fun r -> List.nth r 1) rows in
  Alcotest.(check (list int))
    "counts descending"
    (List.rev (List.sort compare counts))
    counts

let test_execute_three_way_join () =
  (* emp |> join dept |> aggregate: a star query through the whole
     pipeline. *)
  let _, _, cat = setup () in
  let e =
    A.aggregate ~group_by:"r_dept" ~aggs:[ E.Aggregate.Count ]
      (A.join ~left_key:"dept" ~right_key:"dept_id" (A.scan "emp")
         (A.scan "dept"))
  in
  let rows = int_rows (P.Executor.query cat cfg e) in
  checki "10 groups" 10 (List.length rows);
  checki "counts total 200" 200
    (List.fold_left (fun a r -> a + List.nth r 1) 0 rows)

(* [run_traced] materialises each node before it reads its counters, so
   a join's own charges (its output streamed into an aggregation) are
   exactly those of the join run alone. *)
let test_traced_join_counters () =
  let _, _, cat = setup ~n_emp:2000 () in
  let cfg = { cfg with P.Optimizer.mem_pages = 4 } in
  let plan =
    P.Optimizer.plan cat cfg
      (A.aggregate ~group_by:"s_budget" ~aggs:[ E.Aggregate.Count ]
         (A.join ~left_key:"dept" ~right_key:"dept_id" (A.scan "emp") (A.scan "dept")))
  in
  let _, nodes = P.Executor.run_traced cat cfg plan in
  let join = List.find (fun (o : P.Executor.node_obs) -> o.P.Executor.path = "$.0") nodes in
  let choice = List.hd (P.Optimizer.join_choices plan) in
  let rekey name key =
    let rel = P.Catalog.find cat name in
    S.Relation.with_schema rel (S.Schema.with_key (S.Relation.schema rel) key)
  in
  let emp = rekey "emp" "dept" and dept = rekey "dept" "dept_id" in
  let build, probe = if choice.P.Optimizer.swapped then (dept, emp) else (emp, dept) in
  let alone =
    E.Joiner.run_measured choice.P.Optimizer.algorithm ~mem_pages:cfg.P.Optimizer.mem_pages
      ~fudge:cfg.P.Optimizer.fudge build probe
  in
  checkb "join charged" true (alone.E.Op_stats.counters.S.Counters.hashes > 0);
  checkb "traced join self = join alone" true (join.P.Executor.self = alone.E.Op_stats.counters);
  checki "join output" 2000 join.P.Executor.output_tuples

(* ------------------------------------------------------------------ *)
(* Naive reference evaluator + random query trees                      *)
(* ------------------------------------------------------------------ *)

(* Evaluate an expression by brute force over decoded rows, independent of
   the operator implementations. *)
let rec naive_eval cat (expr : A.expr) : S.Tuple.value list list =
  match expr with
  | A.Scan name -> P.Executor.rows (P.Catalog.find cat name)
  | A.Order_by { input; column; descending } ->
    let schema = P.Optimizer.output_schema cat input in
    let ci = S.Schema.column_index schema column in
    let cmp a b = compare (List.nth a ci) (List.nth b ci) in
    let sorted = List.stable_sort cmp (naive_eval cat input) in
    if descending then List.rev sorted else sorted
  | A.Set_op { op; left; right } -> (
    let l = List.sort_uniq compare (naive_eval cat left) in
    let r = List.sort_uniq compare (naive_eval cat right) in
    match op with
    | A.Union -> List.sort_uniq compare (l @ r)
    | A.Intersect -> List.filter (fun x -> List.mem x r) l
    | A.Except -> List.filter (fun x -> not (List.mem x r)) l)
  | A.Select { input; pred } ->
    let schema = P.Optimizer.output_schema cat input in
    List.filter
      (fun row ->
        let tup = S.Tuple.encode schema row in
        A.eval_predicate schema pred tup)
      (naive_eval cat input)
  | A.Project { input; columns; distinct } ->
    let schema = P.Optimizer.output_schema cat input in
    let idxs = List.map (S.Schema.column_index schema) columns in
    let rows =
      List.map
        (fun row -> List.map (fun i -> List.nth row i) idxs)
        (naive_eval cat input)
    in
    if distinct then List.sort_uniq compare rows else rows
  | A.Join { left; right; left_key; right_key } ->
    let ls = P.Optimizer.output_schema cat left in
    let rs = P.Optimizer.output_schema cat right in
    let li = S.Schema.column_index ls left_key in
    let ri = S.Schema.column_index rs right_key in
    let rrows = naive_eval cat right in
    List.concat_map
      (fun lrow ->
        List.filter_map
          (fun rrow ->
            if List.nth lrow li = List.nth rrow ri then Some (lrow @ rrow)
            else None)
          rrows)
      (naive_eval cat left)
  | A.Aggregate { input; group_by; aggs } ->
    let schema = P.Optimizer.output_schema cat input in
    let gi = S.Schema.column_index schema group_by in
    let groups = Hashtbl.create 16 in
    List.iter
      (fun row ->
        let g = List.nth row gi in
        let cur = try Hashtbl.find groups g with Not_found -> [] in
        Hashtbl.replace groups g (row :: cur))
      (naive_eval cat input);
    let col_val row name =
      match List.nth row (S.Schema.column_index schema name) with
      | S.Tuple.VInt v -> v
      | S.Tuple.VStr _ -> Alcotest.fail "string aggregate"
    in
    Hashtbl.fold
      (fun g rows acc ->
        let n = List.length rows in
        let agg_vals =
          List.map
            (fun spec ->
              match spec with
              | E.Aggregate.Count -> S.Tuple.VInt n
              | E.Aggregate.Sum c ->
                S.Tuple.VInt
                  (List.fold_left (fun a r -> a + col_val r c) 0 rows)
              | E.Aggregate.Min c ->
                S.Tuple.VInt
                  (List.fold_left (fun a r -> min a (col_val r c)) max_int rows)
              | E.Aggregate.Max c ->
                S.Tuple.VInt
                  (List.fold_left (fun a r -> max a (col_val r c)) min_int rows)
              | E.Aggregate.Avg c ->
                S.Tuple.VInt
                  (List.fold_left (fun a r -> a + col_val r c) 0 rows / n))
            aggs
        in
        (g :: agg_vals) :: acc)
      groups []

(* Random expression trees over the emp/dept catalog, schema-directed so
   every column reference is valid. *)
let gen_expr cat =
  let open QCheck.Gen in
  (* Present, absent, inserted-after-the-index, deleted and moved keys of
     the indexed tables (see [indexed_catalog]). *)
  let key =
    oneof
      [
        int_range 0 59;
        oneofl [ -1; 7; 100; 101; 102; 150; 200 ];
      ]
  in
  (* A chain of one or two selections over a table's scan, with an
     equality on the key in either position. *)
  let point =
    oneofl [ "acct"; "vip"; "emp" ] >>= fun table ->
    key >>= fun k ->
    let eq = { A.column = "id"; op = A.Eq; value = S.Tuple.VInt k } in
    let sel pred input = A.Select { input; pred } in
    oneofl [ "dept"; "salary" ] >>= fun column ->
    oneofl [ A.Eq; A.Ne; A.Lt; A.Ge ] >>= fun op ->
    (if column = "dept" then int_range 0 6 else int_range 30_000 100_000)
    >>= fun v ->
    let other = { A.column; op; value = S.Tuple.VInt v } in
    oneofl
      [
        sel eq (A.scan table);
        sel other (sel eq (A.scan table));
        sel eq (sel other (A.scan table));
      ]
  in
  let int_columns schema =
    List.filter_map
      (fun (c : S.Schema.column) ->
        match c.S.Schema.ty with
        | S.Schema.Int -> Some c.S.Schema.name
        | S.Schema.Fixed_string -> None)
      (S.Schema.columns schema)
  in
  let rec gen depth =
    if depth = 0 then
      frequency [ (1, oneofl [ A.scan "emp"; A.scan "dept" ]); (1, point) ]
    else
      gen (depth - 1) >>= fun input ->
      let schema = P.Optimizer.output_schema cat input in
      let cols = int_columns schema in
      int_range 0 4 >>= fun shape ->
      match shape with
      | 0 ->
        (* selection on a random int column *)
        oneofl cols >>= fun column ->
        oneofl [ A.Eq; A.Ne; A.Lt; A.Le; A.Gt; A.Ge ] >>= fun op ->
        int_range 0 2000 >|= fun v ->
        A.select ~column ~op ~value:(S.Tuple.VInt v) input
      | 1 ->
        (* projection of a random nonempty prefix of the int columns *)
        int_range 1 (List.length cols) >>= fun k ->
        bool >|= fun distinct ->
        A.project ~distinct ~columns:(List.filteri (fun i _ -> i < k) cols)
          input
      | 2 ->
        (* join with a base relation on random int columns *)
        oneofl cols >>= fun left_key ->
        oneofl [ "emp"; "dept"; "acct"; "vip" ] >>= fun base ->
        let base_schema = P.Optimizer.output_schema cat (A.scan base) in
        oneofl (int_columns base_schema) >|= fun right_key ->
        A.join ~left_key ~right_key input (A.scan base)
      | 3 ->
        (* aggregation on a random int column *)
        oneofl cols >>= fun group_by ->
        oneofl cols >|= fun agg_col ->
        A.aggregate ~group_by
          ~aggs:[ E.Aggregate.Count; E.Aggregate.Sum agg_col ]
          input
      | _ ->
        (* presentation sort *)
        oneofl cols >>= fun column ->
        bool >|= fun descending -> A.order_by ~descending ~column input
  in
  int_range 0 3 >>= gen

(* emp and dept as in [setup], plus two tables of emp's shape with an
   index on [id]: "acct" with a B+-tree, "vip" with an AVL tree.  Both
   get keys inserted after the index was built, a DELETE and a
   non-key UPDATE (each rebuilds the table and its index), and a
   key-changing UPDATE (7 moves to 150). *)
let indexed_catalog () =
  let db = Mmdb.Db.create ~page_size:512 () in
  let rng = U.Xorshift.create 42 in
  let emp_row i =
    [
      S.Tuple.VInt i;
      S.Tuple.VInt (U.Xorshift.int rng 6);
      S.Tuple.VInt (30_000 + U.Xorshift.int rng 70_000);
    ]
  in
  Mmdb.Db.create_table db ~name:"dept" ~schema:(dept_schema ());
  Mmdb.Db.insert_many db ~table:"dept"
    (List.init 6 (fun i -> [ S.Tuple.VInt i; S.Tuple.VInt (100_000 * (i + 1)) ]));
  List.iter
    (fun table ->
      Mmdb.Db.create_table db ~name:table ~schema:(emp_schema ());
      Mmdb.Db.insert_many db ~table (List.init 60 emp_row))
    [ "emp"; "acct"; "vip" ];
  Mmdb.Db.create_index db ~table:"acct" Mmdb.Db.Btree_index;
  Mmdb.Db.create_index db ~table:"vip" Mmdb.Db.Avl_index;
  List.iter
    (fun table ->
      List.iter
        (fun stmt -> ignore (Mmdb.Db.execute db stmt))
        [
          Printf.sprintf "INSERT INTO %s VALUES (100, 1, 40000), (101, 2, 50000)" table;
          Printf.sprintf "DELETE FROM %s WHERE dept = 3" table;
          Printf.sprintf "UPDATE %s SET salary = 31000 WHERE dept = 4" table;
          Printf.sprintf "UPDATE %s SET id = 150 WHERE id = 7" table;
          Printf.sprintf "INSERT INTO %s VALUES (102, 5, 60000)" table;
        ])
    [ "acct"; "vip" ];
  Mmdb.Db.catalog db

let qcheck_planner_matches_naive =
  (* Built once: the catalog is immutable across cases. *)
  let cat = indexed_catalog () in
  QCheck.Test.make ~name:"optimized plans match the naive evaluator"
    ~count:150
    (QCheck.make
       ~print:(fun e -> Format.asprintf "%a" A.pp e)
       (gen_expr cat))
    (fun expr ->
      let expected = List.sort compare (naive_eval cat expr) in
      let planned =
        List.sort compare
          (P.Executor.rows (P.Executor.query cat cfg expr))
      in
      let planned_small_mem =
        List.sort compare
          (P.Executor.rows
             (P.Executor.query cat { cfg with P.Optimizer.mem_pages = 4 } expr))
      in
      planned = expected && planned_small_mem = expected)

(* Major-heap words [f] allocates, from an empty minor heap: a 4 KiB
   page is a major-heap block (514 words), the small values of a
   statement are not.  [Gc.counters], not [Gc.quick_stat], which does
   not count direct major allocations on OCaml 5.1. *)
let major_words f =
  Gc.minor ();
  let _, _, before = Gc.counters () in
  f ();
  let _, _, after = Gc.counters () in
  int_of_float (after -. before)

(* A point SELECT streams its index lookup, filter and projection into
   the decoded rows and builds no relation, so it allocates no page.  An
   INSERT that refills the last page copies it once to reopen it and once
   as the disk stores it, both into frames from the disk's pool, which
   the INSERT before refilled; the statistics read the new tuple in
   place.  The pool is weak, so the INSERT is retried while a major cycle
   ends during it. *)
let test_point_statement_pages () =
  let db = Mmdb.Db.create () in
  let schema =
    S.Schema.create ~key:"id"
      [
        S.Schema.column "id" S.Schema.Int;
        S.Schema.column "grp" S.Schema.Int;
        S.Schema.column ~width:32 "pad" S.Schema.Fixed_string;
      ]
  in
  Mmdb.Db.create_table db ~name:"acct" ~schema;
  Mmdb.Db.insert_many db ~table:"acct"
    (List.init 20_000 (fun i ->
         [ S.Tuple.VInt i; S.Tuple.VInt (i mod 1000); S.Tuple.VStr "pad" ]));
  Mmdb.Db.create_index db ~table:"acct" Mmdb.Db.Btree_index;
  let words stmt =
    (* The first run computes the statistics the planner reads. *)
    ignore (Mmdb.Db.execute db stmt);
    major_words (fun () -> ignore (Mmdb.Db.execute db stmt))
  in
  checki "SELECT * by key" 0 (words "SELECT * FROM acct WHERE id = 4321");
  checki "projection by key" 0 (words "SELECT grp FROM acct WHERE id = 4321");
  checki "filter by key" 0
    (words "SELECT * FROM acct WHERE id = 4321 AND grp = 321");
  let insert id = ignore (Mmdb.Db.execute db (Printf.sprintf "INSERT INTO acct VALUES (%d, 0, 'pad')" id)) in
  insert 20000;
  let rec refill id =
    let cycles = (Gc.quick_stat ()).Gc.major_collections in
    let words = major_words (fun () -> insert id) in
    if (Gc.quick_stat ()).Gc.major_collections = cycles || id = 20005 then words
    else refill (id + 1)
  in
  checki "INSERT refilling the last page" 0 (refill 20001)

let () =
  Alcotest.run "mmdb_planner"
    [
      ( "algebra",
        [
          Alcotest.test_case "predicate eval" `Quick test_predicate_eval;
          Alcotest.test_case "type mismatch" `Quick
            test_predicate_type_mismatch;
          Alcotest.test_case "base relations" `Quick test_base_relations;
        ] );
      ( "catalog",
        [
          Alcotest.test_case "stats" `Quick test_catalog_stats;
          Alcotest.test_case "unknown" `Quick test_catalog_unknown;
          QCheck_alcotest.to_alcotest qcheck_catalog_stats_incremental;
        ] );
      ( "selectivity",
        [
          Alcotest.test_case "scan" `Quick test_selectivity_scan;
          Alcotest.test_case "equality" `Quick test_selectivity_eq;
          Alcotest.test_case "range" `Quick test_selectivity_range;
          Alcotest.test_case "histogram on skew" `Quick
            test_selectivity_histogram_skew;
          Alcotest.test_case "join" `Quick test_selectivity_join;
          Alcotest.test_case "aggregate" `Quick test_selectivity_aggregate;
          Alcotest.test_case "aggregate over a join" `Quick
            test_selectivity_aggregate_over_join;
          Alcotest.test_case "set operation" `Quick test_selectivity_set_op;
        ] );
      ( "optimizer",
        [
          Alcotest.test_case "join schema prefixes" `Quick
            test_output_schema_join_prefixes;
          Alcotest.test_case "selection pushdown" `Quick
            test_pushdown_below_join;
          Alcotest.test_case "build side smaller" `Quick
            test_build_side_is_smaller;
          Alcotest.test_case "algorithm choice" `Quick
            test_algorithm_choice_hash_with_memory;
          Alcotest.test_case "hash cheaper than sort" `Quick
            test_hash_plan_cheaper_than_sort_plan;
          Alcotest.test_case "explain output" `Quick
            test_explain_mentions_algorithm;
        ] );
      ( "executor",
        [
          Alcotest.test_case "scan" `Quick test_execute_scan;
          Alcotest.test_case "filter" `Quick test_execute_filter;
          Alcotest.test_case "join vs oracle" `Quick
            test_execute_join_matches_oracle;
          Alcotest.test_case "same result any memory" `Quick
            test_execute_join_all_algorithms_same_result;
          Alcotest.test_case "filter above join" `Quick
            test_execute_filter_above_join;
          Alcotest.test_case "aggregate" `Quick test_execute_aggregate;
          Alcotest.test_case "project distinct" `Quick
            test_execute_project_distinct;
          Alcotest.test_case "order by" `Quick test_execute_order_by;
          Alcotest.test_case "order by above aggregate" `Quick
            test_execute_order_by_above_aggregate;
          Alcotest.test_case "join + aggregate" `Quick
            test_execute_three_way_join;
          Alcotest.test_case "traced join counters" `Quick
            test_traced_join_counters;
          QCheck_alcotest.to_alcotest qcheck_planner_matches_naive;
          Alcotest.test_case "point statements allocate no page" `Quick
            test_point_statement_pages;
        ] );
    ]
