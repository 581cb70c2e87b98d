(* Tests for the SQL front-end: parsing, error reporting, and end-to-end
   equivalence with hand-built algebra expressions. *)

module S = Mmdb_storage
module P = Mmdb_planner
module A = P.Algebra
module M = Mmdb

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

let parse_ok s =
  match P.Sql.parse s with
  | Ok e -> e
  | Error m -> Alcotest.fail (Printf.sprintf "parse of %S failed: %s" s m)

let parse_err s =
  match P.Sql.parse s with
  | Ok _ -> Alcotest.fail (Printf.sprintf "parse of %S should fail" s)
  | Error m -> m

let expr_str e = Format.asprintf "%a" A.pp e

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)
(* ------------------------------------------------------------------ *)

let test_parse_scan () =
  checks "select star" "emp" (expr_str (parse_ok "SELECT * FROM emp"))

let test_parse_projection () =
  checks "projection" "project[id,salary](emp)"
    (expr_str (parse_ok "SELECT id, salary FROM emp"));
  checks "distinct" "project-distinct[dept](emp)"
    (expr_str (parse_ok "SELECT DISTINCT dept FROM emp"))

let test_parse_where () =
  checks "single predicate" "project[id](select[salary > 50000](emp))"
    (expr_str (parse_ok "SELECT id FROM emp WHERE salary > 50000"));
  checks "conjunction"
    "project[id](select[dept = 3](select[salary >= 10](emp)))"
    (expr_str (parse_ok "SELECT id FROM emp WHERE salary >= 10 AND dept = 3"))

let test_parse_operators () =
  List.iter
    (fun (src, expect) ->
      checks src expect (expr_str (parse_ok ("SELECT * FROM t WHERE a " ^ src))))
    [
      ("= 1", "select[a = 1](t)");
      ("<> 1", "select[a <> 1](t)");
      ("!= 1", "select[a <> 1](t)");
      ("< 1", "select[a < 1](t)");
      ("<= 1", "select[a <= 1](t)");
      ("> 1", "select[a > 1](t)");
      (">= 1", "select[a >= 1](t)");
      ("= -5", "select[a = -5](t)");
      ("= 'x'", "select[a = \"x\"](t)");
    ]

let test_parse_join () =
  checks "one join" "join[dept=dept_id](emp, dept)"
    (expr_str (parse_ok "SELECT * FROM emp JOIN dept ON dept = dept_id"));
  checks "two joins (left-deep)"
    "join[s_region=region_id](join[dept=dept_id](emp, dept), regions)"
    (expr_str
       (parse_ok
          "SELECT * FROM emp JOIN dept ON dept = dept_id JOIN regions ON \
           s_region = region_id"))

let test_parse_group_by () =
  checks "aggregate" "aggregate[by dept; 2 aggs](emp)"
    (expr_str
       (parse_ok "SELECT dept, COUNT(*), SUM(salary) FROM emp GROUP BY dept"));
  checks "aggregate over join"
    "aggregate[by r_dept; 1 aggs](select[r_salary > 10](join[dept=dept_id](emp, dept)))"
    (expr_str
       (parse_ok
          "SELECT r_dept, AVG(r_salary) FROM emp JOIN dept ON dept = dept_id \
           WHERE r_salary > 10 GROUP BY r_dept"))

let test_parse_order_by () =
  checks "order by" "order[salary](project[id,salary](emp))"
    (expr_str (parse_ok "SELECT id, salary FROM emp ORDER BY salary"));
  checks "order by desc" "order[salary desc](emp)"
    (expr_str (parse_ok "SELECT * FROM emp ORDER BY salary DESC"));
  checks "order by asc" "order[salary](emp)"
    (expr_str (parse_ok "SELECT * FROM emp ORDER BY salary ASC"));
  checks "order above group by"
    "order[count desc](aggregate[by dept; 1 aggs](emp))"
    (expr_str
       (parse_ok
          "SELECT dept, COUNT(*) FROM emp GROUP BY dept ORDER BY count DESC"))

let test_parse_set_ops () =
  checks "union"
    "union(project[dept](select[salary > 9000](emp)), project[dept](select[salary < 100](emp)))"
    (expr_str
       (parse_ok
          "SELECT dept FROM emp WHERE salary > 9000 UNION SELECT dept FROM \
           emp WHERE salary < 100"));
  checks "except left-assoc"
    "except(intersect(project[a](t), project[a](u)), project[a](v))"
    (expr_str
       (parse_ok
          "SELECT a FROM t INTERSECT SELECT a FROM u EXCEPT SELECT a FROM v"));
  checks "set op then order"
    "order[dept](union(project[dept](emp), project[dept](emp)))"
    (expr_str
       (parse_ok
          "SELECT dept FROM emp UNION SELECT dept FROM emp ORDER BY dept"))

let test_parse_case_insensitive () =
  checks "lowercase keywords" "project[id](select[dept = 1](emp))"
    (expr_str (parse_ok "select id from emp where dept = 1"))

let test_parse_errors () =
  let has_sub hay needle =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  checkb "missing FROM" true (has_sub (parse_err "SELECT *") "FROM");
  checkb "bad operator chain" true
    (String.length (parse_err "SELECT * FROM t WHERE a = = 1") > 0);
  checkb "unterminated string" true
    (has_sub (parse_err "SELECT * FROM t WHERE a = 'oops") "unterminated");
  checkb "aggregate without group by" true
    (has_sub (parse_err "SELECT COUNT(*) FROM t") "GROUP BY");
  checkb "group by needs select list" true
    (has_sub (parse_err "SELECT * FROM t GROUP BY a") "select list");
  checkb "non-aggregated column" true
    (has_sub
       (parse_err "SELECT a, b FROM t GROUP BY a")
       "non-aggregated");
  checkb "trailing garbage" true
    (has_sub (parse_err "SELECT * FROM t WHERE a = 1 b") "unexpected");
  checkb "stray char" true
    (String.length (parse_err "SELECT * FROM t %") > 0)

(* ------------------------------------------------------------------ *)
(* End to end through Db                                               *)
(* ------------------------------------------------------------------ *)

let setup_db () =
  let db = M.Db.create () in
  let emp =
    S.Schema.create ~key:"id"
      [
        S.Schema.column "id" S.Schema.Int;
        S.Schema.column "dept" S.Schema.Int;
        S.Schema.column "salary" S.Schema.Int;
      ]
  in
  let dept =
    S.Schema.create ~key:"dept_id"
      [
        S.Schema.column "dept_id" S.Schema.Int;
        S.Schema.column "budget" S.Schema.Int;
      ]
  in
  M.Db.create_table db ~name:"emp" ~schema:emp;
  M.Db.create_table db ~name:"dept" ~schema:dept;
  M.Db.insert_many db ~table:"emp"
    (List.init 60 (fun i ->
         [
           S.Tuple.VInt i;
           S.Tuple.VInt (i mod 4);
           S.Tuple.VInt (1000 * (i mod 10));
         ]));
  M.Db.insert_many db ~table:"dept"
    (List.init 4 (fun i -> [ S.Tuple.VInt i; S.Tuple.VInt (i * 100) ]));
  db

let test_sql_end_to_end_filter () =
  let db = setup_db () in
  let rows = M.Db.sql db "SELECT id FROM emp WHERE salary >= 8000" in
  checki "6 rows with salary 8000 or 9000" 12 (List.length rows)

let test_sql_end_to_end_join_aggregate () =
  let db = setup_db () in
  let rows =
    M.Db.sql db
      "SELECT r_dept, COUNT(*), SUM(s_budget) FROM emp JOIN dept ON dept = \
       dept_id GROUP BY r_dept"
  in
  checki "4 groups" 4 (List.length rows);
  List.iter
    (fun row ->
      match row with
      | [ S.Tuple.VInt dept; S.Tuple.VInt count; S.Tuple.VInt budget_sum ] ->
        checki "15 employees per dept" 15 count;
        checki "sum = count * dept budget" (15 * dept * 100) budget_sum
      | _ -> Alcotest.fail "bad row shape")
    rows

let test_sql_matches_algebra () =
  let db = setup_db () in
  let via_sql =
    M.Db.sql db "SELECT DISTINCT dept FROM emp WHERE salary > 3000"
  in
  let via_algebra =
    M.Db.query_rows db
      (A.project ~distinct:true ~columns:[ "dept" ]
         (A.select ~column:"salary" ~op:A.Gt ~value:(S.Tuple.VInt 3000)
            (A.scan "emp")))
  in
  checkb "identical results" true
    (List.sort compare via_sql = List.sort compare via_algebra)

let test_sql_explain () =
  let db = setup_db () in
  let text =
    M.Db.sql_explain db
      "SELECT r_dept, COUNT(*) FROM emp JOIN dept ON dept = dept_id WHERE \
       r_salary > 5000 GROUP BY r_dept"
  in
  let has_sub needle =
    let nl = String.length needle and hl = String.length text in
    let rec go i = i + nl <= hl && (String.sub text i nl = needle || go (i + 1)) in
    go 0
  in
  checkb "plan shows join" true (has_sub "join");
  (* The WHERE predicate must have been pushed below the join. *)
  checkb "filter pushed down" true (has_sub "filter salary")

let test_sql_order_by_end_to_end () =
  let db = setup_db () in
  let rows =
    M.Db.sql db "SELECT id, salary FROM emp WHERE dept = 1 ORDER BY salary DESC"
  in
  let salaries =
    List.map
      (fun row ->
        match row with
        | [ _; S.Tuple.VInt s ] -> s
        | _ -> Alcotest.fail "bad row")
      rows
  in
  checkb "descending" true
    (salaries = List.rev (List.sort compare salaries));
  checki "15 rows" 15 (List.length rows)

let test_sql_set_ops_end_to_end () =
  let db = setup_db () in
  let ints rows =
    List.sort compare
      (List.map
         (fun row ->
           match row with
           | [ S.Tuple.VInt v ] -> v
           | _ -> Alcotest.fail "bad row")
         rows)
  in
  (* Departments of low earners union departments of high earners. *)
  let union =
    ints
      (M.Db.sql db
         "SELECT dept FROM emp WHERE salary < 2000 UNION SELECT dept FROM \
          emp WHERE salary >= 8000")
  in
  Alcotest.(check (list int)) "union distinct depts" [ 0; 1; 2; 3 ] union;
  let inter =
    ints
      (M.Db.sql db
         "SELECT dept FROM emp WHERE salary = 0 INTERSECT SELECT dept FROM \
          emp WHERE salary = 9000")
  in
  (* salary 0 <=> i mod 10 = 0 <=> dept in {0,2}; salary 9000 <=> i mod 10
     = 9 <=> dept in {1,3}.  Intersection is empty. *)
  Alcotest.(check (list int)) "empty intersection" [] inter;
  let except =
    ints
      (M.Db.sql db
         "SELECT dept FROM emp EXCEPT SELECT dept FROM emp WHERE salary = 0")
  in
  Alcotest.(check (list int)) "depts never paying 0" [ 1; 3 ] except

let test_sql_unknown_table () =
  let db = setup_db () in
  checkb "unknown table raises" true
    (try
       ignore (M.Db.sql db "SELECT * FROM nope");
       false
     with Not_found | Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* DML                                                                 *)
(* ------------------------------------------------------------------ *)

let count db table = List.length (M.Db.sql db ("SELECT * FROM " ^ table))

let test_dml_insert () =
  let db = setup_db () in
  (match
     M.Db.execute db "INSERT INTO emp VALUES (100, 1, 7777), (101, 2, 8888)"
   with
  | M.Db.Affected 2 -> ()
  | _ -> Alcotest.fail "expected Affected 2");
  checki "62 rows now" 62 (count db "emp");
  (match M.Db.lookup db ~table:"emp" ~key:(S.Tuple.VInt 100) with
  | Some [ _; _; S.Tuple.VInt 7777 ] -> ()
  | _ -> Alcotest.fail "inserted row not found")

let test_dml_delete () =
  let db = setup_db () in
  (match M.Db.execute db "DELETE FROM emp WHERE dept = 3" with
  | M.Db.Affected 15 -> ()
  | M.Db.Affected n -> Alcotest.fail (Printf.sprintf "affected %d" n)
  | M.Db.Rows _ -> Alcotest.fail "expected Affected");
  checki "45 remain" 45 (count db "emp");
  checki "none in dept 3" 0
    (List.length (M.Db.sql db "SELECT * FROM emp WHERE dept = 3"))

let test_dml_delete_all () =
  let db = setup_db () in
  (match M.Db.execute db "DELETE FROM emp" with
  | M.Db.Affected 60 -> ()
  | _ -> Alcotest.fail "expected Affected 60");
  checki "empty" 0 (count db "emp")

let test_dml_update () =
  let db = setup_db () in
  (match M.Db.execute db "UPDATE emp SET salary = 0 WHERE dept = 1" with
  | M.Db.Affected 15 -> ()
  | _ -> Alcotest.fail "expected Affected 15");
  let rows = M.Db.sql db "SELECT salary FROM emp WHERE dept = 1" in
  checki "15 rows" 15 (List.length rows);
  List.iter
    (fun row ->
      match row with
      | [ S.Tuple.VInt 0 ] -> ()
      | _ -> Alcotest.fail "salary not zeroed")
    rows;
  checki "other depts untouched" 45
    (List.length (M.Db.sql db "SELECT * FROM emp WHERE dept <> 1"))

let test_dml_maintains_indexes () =
  let db = setup_db () in
  M.Db.create_index db ~table:"emp" M.Db.Btree_index;
  ignore (M.Db.execute db "DELETE FROM emp WHERE id = 30");
  checkb "deleted row invisible to index" true
    (M.Db.lookup db ~table:"emp" ~key:(S.Tuple.VInt 30) = None);
  ignore (M.Db.execute db "UPDATE emp SET salary = 123 WHERE id = 31");
  (match M.Db.lookup db ~table:"emp" ~key:(S.Tuple.VInt 31) with
  | Some [ _; _; S.Tuple.VInt 123 ] -> ()
  | _ -> Alcotest.fail "index stale after update");
  ignore (M.Db.execute db "INSERT INTO emp VALUES (500, 0, 1)");
  checkb "insert indexed" true
    (M.Db.lookup db ~table:"emp" ~key:(S.Tuple.VInt 500) <> None)

(* ------------------------------------------------------------------ *)
(* Index access path                                                   *)
(* ------------------------------------------------------------------ *)

let contains text needle =
  let nl = String.length needle and hl = String.length text in
  let rec go i = i + nl <= hl && (String.sub text i nl = needle || go (i + 1)) in
  go 0

let disk_pages db =
  S.Disk.page_count
    (S.Relation.disk (P.Catalog.find (M.Db.catalog db) "emp"))

let raises_invalid f =
  match f () with _ -> false | exception Invalid_argument _ -> true

let test_explain_index_lookup () =
  let db = setup_db () in
  let explain = M.Db.sql_explain db in
  checkb "no index: key equality scans" false
    (contains (explain "SELECT * FROM emp WHERE id = 7") "index-lookup");
  M.Db.create_index db ~table:"emp" M.Db.Btree_index;
  let key = explain "SELECT * FROM emp WHERE id = 7" in
  checkb "key equality probes the index" true
    (contains key "index-lookup emp.id = 7 (btree)");
  checkb "no scan under the probe" false (contains key "scan emp");
  let first = explain "SELECT * FROM emp WHERE id = 7 AND dept = 3" in
  let second = explain "SELECT * FROM emp WHERE dept = 3 AND id = 7" in
  List.iter
    (fun text ->
      checkb "either AND position probes" true (contains text "index-lookup emp.id = 7");
      checkb "the other predicate filters the probe" true (contains text "filter dept"))
    [ first; second ];
  checkb "non-key equality scans" true
    (contains (explain "SELECT * FROM emp WHERE dept = 7") "scan emp");
  checkb "key range scans" true
    (contains (explain "SELECT * FROM emp WHERE id < 7") "scan emp");
  M.Db.create_index db ~table:"emp" M.Db.Avl_index;
  checkb "AVL preferred over the B+-tree" true
    (contains (explain "SELECT * FROM emp WHERE id = 7") "index-lookup emp.id = 7 (avl)");
  Alcotest.(check (list (list int)))
    "probe answers like the scan"
    [ [ 7; 3; 7000 ] ]
    (List.map
       (List.map (function S.Tuple.VInt v -> v | S.Tuple.VStr _ -> -1))
       (M.Db.sql db "SELECT * FROM emp WHERE dept = 3 AND id = 7"));
  checki "absent key: no row" 0
    (List.length (M.Db.sql db "SELECT * FROM emp WHERE id = 1000"))

let test_sql_insert_duplicate_key () =
  let db = setup_db () in
  ignore (M.Db.execute db "INSERT INTO emp VALUES (5, 0, 0)");
  checki "no index: duplicates allowed" 61 (count db "emp");
  let db = setup_db () in
  M.Db.create_index db ~table:"emp" M.Db.Btree_index;
  checkb "existing key rejected" true
    (raises_invalid (fun () -> M.Db.execute db "INSERT INTO emp VALUES (5, 0, 0)"));
  checkb "key repeated in one statement rejected" true
    (raises_invalid (fun () ->
         M.Db.execute db "INSERT INTO emp VALUES (200, 0, 0), (200, 1, 1)"));
  checki "table unchanged" 60 (count db "emp");
  checkb "index unchanged" true
    (M.Db.lookup db ~table:"emp" ~key:(S.Tuple.VInt 200) = None)

let test_sql_update_duplicate_key () =
  let db = setup_db () in
  M.Db.create_index db ~table:"emp" M.Db.Avl_index;
  checkb "key-changing update onto a taken key rejected" true
    (raises_invalid (fun () -> M.Db.execute db "UPDATE emp SET id = 1 WHERE id = 2"));
  checki "table unchanged" 60 (count db "emp");
  (match M.Db.lookup db ~table:"emp" ~key:(S.Tuple.VInt 2) with
  | Some (S.Tuple.VInt 2 :: _) -> ()
  | Some _ | None -> Alcotest.fail "row 2 lost");
  (match M.Db.execute db "UPDATE emp SET id = 900 WHERE id = 2" with
  | M.Db.Affected 1 -> ()
  | _ -> Alcotest.fail "expected Affected 1");
  checki "free key: probe finds the moved row" 1
    (List.length (M.Db.sql db "SELECT * FROM emp WHERE id = 900"));
  checki "old key gone" 0 (List.length (M.Db.sql db "SELECT * FROM emp WHERE id = 2"))

let test_sql_results_free_pages () =
  let db = setup_db () in
  M.Db.create_index db ~table:"emp" M.Db.Btree_index;
  let before = disk_pages db in
  for k = 0 to 49 do
    ignore (M.Db.sql db (Printf.sprintf "SELECT * FROM emp WHERE id = %d" k));
    ignore (M.Db.execute db (Printf.sprintf "SELECT * FROM emp WHERE dept = %d" (k mod 4)))
  done;
  checki "query results leave no pages" before (disk_pages db);
  (* Every intermediate a plan node consumed is freed as well. *)
  List.iter
    (fun text ->
      ignore (M.Db.sql db text);
      checki ("intermediates leave no pages: " ^ text) before (disk_pages db))
    [
      "SELECT r_dept, COUNT(*) FROM emp JOIN dept ON dept = dept_id WHERE \
       r_salary > 3000 GROUP BY r_dept";
      "SELECT id FROM emp WHERE salary > 2000 ORDER BY id DESC";
      "SELECT DISTINCT dept FROM emp WHERE salary > 3000";
      "SELECT dept FROM emp WHERE salary < 2000 UNION SELECT dept FROM emp \
       WHERE salary > 8000";
    ];
  checki "a bare SELECT * keeps the table" 60 (count db "emp");
  checki "table intact afterwards" 60 (count db "emp");
  checki "and the other base table" 4 (count db "dept");
  checki "and its pages" before (disk_pages db)

let test_sql_single_row_inserts_pack_pages () =
  let db = setup_db () in
  let rel () = P.Catalog.find (M.Db.catalog db) "emp" in
  let before = S.Relation.npages (rel ()) in
  for k = 0 to 99 do
    ignore (M.Db.execute db (Printf.sprintf "INSERT INTO emp VALUES (%d, 0, 0)" (1000 + k)))
  done;
  let tpp = S.Relation.tuples_per_page (rel ()) in
  let bound = ((100 + tpp - 1) / tpp) + 1 in
  checkb
    (Printf.sprintf "100 inserts add at most %d pages" bound)
    true
    (S.Relation.npages (rel ()) - before <= bound);
  checki "catalog prices the packed pages" (S.Relation.npages (rel ()))
    (P.Catalog.stats (M.Db.catalog db) "emp").P.Catalog.npages

let test_dml_query_through_execute () =
  let db = setup_db () in
  match M.Db.execute db "SELECT dept, COUNT(*) FROM emp GROUP BY dept" with
  | M.Db.Rows rows -> checki "4 groups" 4 (List.length rows)
  | M.Db.Affected _ -> Alcotest.fail "expected Rows"

let test_ddl_create_drop () =
  let db = M.Db.create () in
  (match
     M.Db.execute db
       "CREATE TABLE books (isbn INT PRIMARY KEY, title STRING(20), year INT)"
   with
  | M.Db.Affected 0 -> ()
  | _ -> Alcotest.fail "expected Affected 0");
  Alcotest.(check (list string)) "created" [ "books" ] (M.Db.table_names db);
  ignore
    (M.Db.execute db "INSERT INTO books VALUES (42, 'ocaml book', 1996)");
  (match M.Db.lookup db ~table:"books" ~key:(S.Tuple.VInt 42) with
  | Some [ _; S.Tuple.VStr "ocaml book"; S.Tuple.VInt 1996 ] -> ()
  | _ -> Alcotest.fail "row wrong");
  (* Key defaults to the first column when PRIMARY KEY is omitted. *)
  ignore (M.Db.execute db "CREATE TABLE plain (a INT, b INT)");
  ignore (M.Db.execute db "DROP TABLE books");
  Alcotest.(check (list string)) "dropped" [ "plain" ] (M.Db.table_names db);
  checkb "dropped table unknown to planner" true
    (try
       ignore (M.Db.sql db "SELECT * FROM books");
       false
     with
    | Not_found -> true
    (* The plan checker rejects it first, naming the missing relation. *)
    | Invalid_argument m ->
      let rec find i =
        i + 7 <= String.length m && (String.sub m i 7 = "PLAN001" || find (i + 1))
      in
      find 0);
  checkb "create after drop ok" true
    (match M.Db.execute db "CREATE TABLE books (isbn INT)" with
    | M.Db.Affected 0 -> true
    | _ -> false)

let test_ddl_errors () =
  let db = M.Db.create () in
  checkb "duplicate primary key" true
    (match
       P.Sql.parse_statement
         "CREATE TABLE t (a INT PRIMARY KEY, b INT PRIMARY KEY)"
     with
    | Error _ -> true
    | Ok _ -> false);
  checkb "bad type" true
    (match P.Sql.parse_statement "CREATE TABLE t (a FLOAT)" with
    | Error _ -> true
    | Ok _ -> false);
  checkb "drop unknown table" true
    (try
       ignore (M.Db.execute db "DROP TABLE nope");
       false
     with Not_found -> true)

let test_dml_parse_errors () =
  checkb "bad insert" true
    (match P.Sql.parse_statement "INSERT INTO t VALUES 1, 2" with
    | Error _ -> true
    | Ok _ -> false);
  checkb "query via parse rejects DML" true
    (match P.Sql.parse "DELETE FROM t" with Error _ -> true | Ok _ -> false);
  checkb "update needs SET" true
    (match P.Sql.parse_statement "UPDATE t WHERE a = 1" with
    | Error _ -> true
    | Ok _ -> false)

(* ------------------------------------------------------------------ *)
(* Db SELECTs against a list-of-rows model                             *)
(* ------------------------------------------------------------------ *)

(* Three tables of one shape: "bt" with a B+-tree on [id], "av" with an
   AVL tree, "heap" with none; and "dim", joined on [grp = gid].  Keys
   skip multiples of 5, and INSERTs after the index, a DELETE and an
   UPDATE run through [Db.execute] on each table as on its model rows.
   Small pages give each table several. *)
let model_tables = [ "bt"; "av"; "heap" ]
let model_cols = [ "id"; "grp"; "val"; "tag" ]
let model_tags = [| "ant"; "bee"; "be"; "cat" |]

let model_row id =
  [
    S.Tuple.VInt id;
    S.Tuple.VInt (id * 7919 mod 9);
    S.Tuple.VInt (id * 31 mod 50);
    S.Tuple.VStr model_tags.(id * 13 mod 4);
  ]

let model_setup ?mem_pages () =
  let db = M.Db.create ~page_size:256 ?mem_pages () in
  let model = Hashtbl.create 4 in
  let schema =
    S.Schema.create ~key:"id"
      [
        S.Schema.column "id" S.Schema.Int;
        S.Schema.column "grp" S.Schema.Int;
        S.Schema.column "val" S.Schema.Int;
        S.Schema.column ~width:6 "tag" S.Schema.Fixed_string;
      ]
  in
  let dim_rows = List.init 7 (fun g -> [ S.Tuple.VInt g; S.Tuple.VInt (10 * g) ]) in
  M.Db.create_table db ~name:"dim"
    ~schema:
      (S.Schema.create ~key:"gid"
         [ S.Schema.column "gid" S.Schema.Int; S.Schema.column "w" S.Schema.Int ]);
  M.Db.insert_many db ~table:"dim" dim_rows;
  Hashtbl.replace model "dim" dim_rows;
  List.iter
    (fun table ->
      let rows =
        List.map model_row (List.filter (fun i -> i mod 5 <> 0) (List.init 120 Fun.id))
      in
      M.Db.create_table db ~name:table ~schema;
      M.Db.insert_many db ~table rows;
      if table = "bt" then M.Db.create_index db ~table M.Db.Btree_index;
      if table = "av" then M.Db.create_index db ~table M.Db.Avl_index;
      let row id grp v tag = [ S.Tuple.VInt id; S.Tuple.VInt grp; S.Tuple.VInt v; S.Tuple.VStr tag ] in
      let dml : ((string -> string, unit, string) format * _) list =
        [
          ( "INSERT INTO %s VALUES (200, 3, 7, 'bee'), (201, 8, 7, 'ant')",
            fun rows -> rows @ [ row 200 3 7 "bee"; row 201 8 7 "ant" ] );
          ("DELETE FROM %s WHERE val = 4", List.filter (fun r -> List.nth r 2 <> S.Tuple.VInt 4));
          ( "UPDATE %s SET grp = 2 WHERE tag = 'cat'",
            List.map (fun r ->
                if List.nth r 3 = S.Tuple.VStr "cat" then List.mapi (fun i v -> if i = 1 then S.Tuple.VInt 2 else v) r
                else r) );
          ("INSERT INTO %s VALUES (202, 1, 49, 'be')", fun rows -> rows @ [ row 202 1 49 "be" ]);
        ]
      in
      Hashtbl.replace model table
        (List.fold_left
           (fun rows (stmt, apply) ->
             ignore (M.Db.execute db (Printf.sprintf stmt table));
             apply rows)
           rows dml))
    model_tables;
  (db, model)

type model_query = {
  table : string;
  key : int option;  (** [id = k] *)
  preds : (string * A.cmp_op * S.Tuple.value) list;
  join : bool;  (** [JOIN dim ON grp = gid], columns then prefixed *)
  cols : string list option;  (** [None] is [*] *)
  distinct : bool;
  order : (string * bool) option;  (** column, descending *)
  set : (A.set_op * model_query) option;
      (** [UNION], [INTERSECT] or [EXCEPT] with a second projection whose
          columns have the same types; [order] then sorts the result *)
}

let op_sql = function
  | A.Eq -> "=" | A.Ne -> "<>" | A.Lt -> "<" | A.Le -> "<=" | A.Gt -> ">" | A.Ge -> ">="

let value_sql = function S.Tuple.VInt v -> string_of_int v | S.Tuple.VStr s -> "'" ^ s ^ "'"

let where_sql = function
  | [] -> ""
  | ps ->
    " WHERE "
    ^ String.concat " AND "
        (List.map (fun (c, op, v) -> Printf.sprintf "%s %s %s" c (op_sql op) (value_sql v)) ps)

let set_sql = function A.Union -> "UNION" | A.Intersect -> "INTERSECT" | A.Except -> "EXCEPT"

let rec model_sql q =
  let name c = if q.join then "r_" ^ c else c in
  let preds =
    Option.to_list (Option.map (fun k -> (name "id", A.Eq, S.Tuple.VInt k)) q.key) @ q.preds
  in
  String.concat ""
    [
      "SELECT ";
      (if q.distinct then "DISTINCT " else "");
      (match q.cols with None -> "*" | Some cs -> String.concat ", " cs);
      " FROM ";
      q.table;
      (if q.join then " JOIN dim ON grp = gid" else "");
      where_sql preds;
      (match q.set with None -> "" | Some (op, r) -> " " ^ set_sql op ^ " " ^ model_sql r);
      (match q.order with
      | None -> ""
      | Some (c, desc) -> " ORDER BY " ^ c ^ if desc then " DESC" else "");
    ]

(* The output column names before projection. *)
let model_names q =
  if q.join then List.map (( ^ ) "r_") model_cols @ [ "s_gid"; "s_w" ] else model_cols

(* [row], a list of (column, value), satisfies the predicate. *)
let holds row (c, op, v) =
  let x = compare (List.assoc c row) v in
  match op with
  | A.Eq -> x = 0 | A.Ne -> x <> 0 | A.Lt -> x < 0 | A.Le -> x <= 0 | A.Gt -> x > 0 | A.Ge -> x >= 0

let rec model_eval model q =
  let named row = List.combine (model_names q) row in
  let base = Hashtbl.find model q.table in
  let rows =
    if not q.join then base
    else
      List.concat_map
        (fun l ->
          List.filter_map
            (fun d -> if List.nth l 1 = List.hd d then Some (l @ d) else None)
            (Hashtbl.find model "dim"))
        base
  in
  let key = Option.to_list (Option.map (fun k -> (List.hd (model_names q), A.Eq, S.Tuple.VInt k)) q.key) in
  let rows = List.filter (fun r -> List.for_all (holds (named r)) (key @ q.preds)) rows in
  let rows =
    match q.cols with
    | None -> rows
    | Some cs -> List.map (fun r -> List.map (fun c -> List.assoc c (named r)) cs) rows
  in
  match q.set with
  | None -> if q.distinct then List.sort_uniq compare rows else rows
  | Some (op, r) -> (
    (* Set semantics: both sides' distinct rows. *)
    let l = List.sort_uniq compare rows and r = List.sort_uniq compare (model_eval model r) in
    match op with
    | A.Union -> List.sort_uniq compare (l @ r)
    | A.Intersect -> List.filter (fun x -> List.mem x r) l
    | A.Except -> List.filter (fun x -> not (List.mem x r)) l)

let gen_pred names =
  let open QCheck.Gen in
  oneofl names >>= fun c ->
  oneofl [ A.Eq; A.Ne; A.Lt; A.Le; A.Gt; A.Ge ] >>= fun op ->
  (if String.ends_with ~suffix:"tag" c then map (fun t -> S.Tuple.VStr t) (oneofa model_tags)
   else map (fun v -> S.Tuple.VInt v) (int_range (-1) 60))
  >|= fun v -> (c, op, v)

let gen_model_query_on tables =
  let open QCheck.Gen in
  oneofl tables >>= fun table ->
  bool >>= fun join ->
  let q0 = { table; key = None; preds = []; join; cols = None; distinct = false; order = None; set = None } in
  let names = model_names q0 in
  opt ~ratio:0.6 (int_range (-2) 210) >>= fun key ->
  list_size (int_range 0 2) (gen_pred names) >>= fun preds ->
  opt (shuffle_l names >>= fun cs -> int_range 1 (List.length cs) >|= fun k -> List.filteri (fun i _ -> i < k) cs)
  >>= fun cols ->
  (match cols with None -> return false | Some _ -> bool) >>= fun distinct ->
  opt (oneofl (Option.value cols ~default:names) >>= fun c -> bool >|= fun d -> (c, d)) >|= fun order ->
  { q0 with key; preds; cols; distinct; order }

(* Distinct columns of [avail] whose types match [cols], position by
   position, if it has enough. *)
let rec same_types avail = function
  | [] -> Some []
  | c :: cols -> (
    let is_tag c = String.ends_with ~suffix:"tag" c in
    match List.find_opt (fun n -> is_tag n = is_tag c) avail with
    | None -> None
    | Some n -> Option.map (List.cons n) (same_types (List.filter (( <> ) n) avail) cols))

(* About a third of the projections gain a set operation with a second
   drawn projection whose columns match theirs in type. *)
let gen_model_query =
  let open QCheck.Gen in
  gen_model_query_on model_tables >>= fun q ->
  gen_model_query_on model_tables >>= fun r ->
  shuffle_l (model_names r) >>= fun avail ->
  oneofl [ A.Union; A.Intersect; A.Except ] >>= fun op ->
  int_bound 2 >|= fun coin ->
  match Option.bind q.cols (same_types avail) with
  | Some rcols when coin = 0 ->
    { q with set = Some (op, { r with cols = Some rcols; order = None }) }
  | Some _ | None -> q

(* Simpler queries first: drop the order, the distinct, the projection,
   the join (when no column needs it), a predicate, the key. *)
let shrink_model_query q yield =
  let uses_join = q.join && (q.cols <> None || q.order <> None || q.preds <> []) in
  if q.set <> None then yield { q with set = None };
  if q.order <> None then yield { q with order = None };
  if q.distinct then yield { q with distinct = false };
  if q.cols <> None && q.order = None && q.set = None then yield { q with cols = None; distinct = false };
  if q.join && not uses_join then yield { q with join = false };
  List.iteri (fun i _ -> yield { q with preds = List.filteri (fun j _ -> j <> i) q.preds }) q.preds;
  if q.key <> None then yield { q with key = None }

(* The rows [Db.execute] returns for [q] are the model's, in the
   requested order when there is one. *)
let select_matches db model q =
  let expected = model_eval model q in
  match M.Db.execute db (model_sql q) with
  | M.Db.Affected _ -> false
  | M.Db.Rows got -> (
    List.sort compare got = List.sort compare expected
    &&
    match q.order with
    | None -> true
    | Some (c, desc) ->
      let i = Option.value ~default:0 (List.find_index (( = ) c) (Option.value q.cols ~default:(model_names q))) in
      let keys = List.map (fun r -> List.nth r i) got in
      let sorted = List.stable_sort compare keys in
      keys = if desc then List.rev sorted else sorted)

let qcheck_selects_match_model ?mem_pages name =
  let db, model = model_setup ?mem_pages () in
  QCheck.Test.make ~name ~count:400
    (QCheck.make ~print:model_sql ~shrink:shrink_model_query gen_model_query)
    (select_matches db model)

let qcheck_db_selects_match_model =
  qcheck_selects_match_model "Db SELECTs match a list-of-rows model"

(* The same queries with three pages of memory: every join, DISTINCT and
   set operation spills its partitions and frees them mid-plan, so the
   disk's frames are reused under a live plan. *)
let qcheck_db_selects_match_model_spilling =
  qcheck_selects_match_model ~mem_pages:3
    "Db SELECTs match a list-of-rows model, spilling at mem_pages = 3"

(* ------------------------------------------------------------------ *)
(* Db statement sequences against the same model                       *)
(* ------------------------------------------------------------------ *)

(* A fresh database per case: CREATE TABLE through SQL for "dim" and
   one of the three model tables, its index (if any), rows with ids
   0, 3, ..., 33, then drawn statements.  Each statement's effect is
   applied to the model rows, and the SELECTs drawn with it must match
   the model afterwards.  Ids are drawn from [0, 40], so INSERTs and
   key-changing UPDATEs often collide: on "bt" and "av" the statement
   must raise and leave the table as it was; "heap" keeps both rows.
   Every change reaches an index only through the table rebuild. *)
type dml =
  | Insert of int list  (** rows [model_row id] *)
  | Delete of (string * A.cmp_op * S.Tuple.value) list
  | Update of string * S.Tuple.value * (string * A.cmp_op * S.Tuple.value) list
  | Save_load  (** [Db.save], then continue on [Db.load] of the file *)

type dml_case = { table : string; script : (dml * model_query list) list }

let dml_sql table = function
  | Insert ids ->
    let row id = "(" ^ String.concat ", " (List.map value_sql (model_row id)) ^ ")" in
    Printf.sprintf "INSERT INTO %s VALUES %s" table (String.concat ", " (List.map row ids))
  | Delete ps -> "DELETE FROM " ^ table ^ where_sql ps
  | Update (c, v, ps) -> Printf.sprintf "UPDATE %s SET %s = %s%s" table c (value_sql v) (where_sql ps)
  | Save_load -> "(save, load)"

let print_dml_case c =
  String.concat "\n"
    (List.concat_map
       (fun (stmt, probes) -> dml_sql c.table stmt :: List.map (fun q -> "  " ^ model_sql q) probes)
       c.script)

(* The table's rows after [stmt], or [None] when the statement must raise
   (a duplicate key in an indexed table), with the count it reports. *)
let model_apply table rows stmt =
  let matching ps r = List.for_all (holds (List.combine model_cols r)) ps in
  let checked rows' affected =
    let ids = List.map List.hd rows' in
    if table <> "heap" && List.length (List.sort_uniq compare ids) <> List.length ids then None
    else Some (rows', affected)
  in
  match stmt with
  | Insert ids -> checked (rows @ List.map model_row ids) (List.length ids)
  | Delete ps ->
    let kept = List.filter (fun r -> not (matching ps r)) rows in
    Some (kept, List.length rows - List.length kept)
  | Update (c, v, ps) ->
    let col = Option.get (List.find_index (( = ) c) model_cols) in
    checked
      (List.map (fun r -> if matching ps r then List.mapi (fun i x -> if i = col then v else x) r else r) rows)
      (List.length (List.filter (matching ps) rows))
  | Save_load -> Some (rows, 0)

let gen_dml_case =
  let open QCheck.Gen in
  oneofl model_tables >>= fun table ->
  let id = int_range 0 40 in
  let preds = list_size (int_range 0 2) (gen_pred model_cols) in
  let stmt =
    frequency
      [
        (3, list_size (int_range 1 3) id >|= fun ids -> Insert ids);
        (2, preds >|= fun ps -> Delete ps);
        ( 3,
          oneofl model_cols >>= fun c ->
          (match c with
          | "id" -> map (fun v -> S.Tuple.VInt v) id
          | "tag" -> map (fun t -> S.Tuple.VStr t) (oneofa model_tags)
          | _ -> map (fun v -> S.Tuple.VInt v) (int_range (-1) 60))
          >>= fun v -> preds >|= fun ps -> Update (c, v, ps) );
        (1, return Save_load);
      ]
  in
  let probes = list_size (int_range 1 2) (gen_model_query_on [ table ]) in
  list_size (int_range 1 8) (pair stmt probes) >|= fun script -> { table; script }

(* Shorter scripts first, then fewer and simpler SELECTs. *)
let shrink_dml_case c =
  let shrink_step (stmt, probes) =
    QCheck.Iter.map (fun probes -> (stmt, probes))
      (QCheck.Shrink.list ~shrink:shrink_model_query probes)
  in
  QCheck.Iter.map (fun script -> { c with script }) (QCheck.Shrink.list ~shrink:shrink_step c.script)

let run_dml_case c =
  let db = ref (M.Db.create ~page_size:256 ~mem_pages:64 ()) in
  let exec sql = M.Db.execute !db sql in
  ignore (exec "CREATE TABLE dim (gid INT PRIMARY KEY, w INT)");
  ignore (exec "INSERT INTO dim VALUES (0, 0), (1, 10), (2, 20), (3, 30), (4, 40), (5, 50), (6, 60)");
  ignore
    (exec
       (Printf.sprintf "CREATE TABLE %s (id INT PRIMARY KEY, grp INT, val INT, tag STRING(6))" c.table));
  if c.table = "bt" then M.Db.create_index !db ~table:c.table M.Db.Btree_index;
  if c.table = "av" then M.Db.create_index !db ~table:c.table M.Db.Avl_index;
  let model = Hashtbl.create 2 in
  Hashtbl.replace model "dim" (List.init 7 (fun g -> [ S.Tuple.VInt g; S.Tuple.VInt (10 * g) ]));
  Hashtbl.replace model c.table [];
  let step (stmt, probes) =
    let rows = Hashtbl.find model c.table in
    let applied =
      match (model_apply c.table rows stmt, stmt) with
      | Some _, Save_load ->
        (* A reload keeps the page size and memory budget, so every
           table spans as many pages as before. *)
        let layout db =
          ( M.Db.mem_pages db,
            List.map
              (fun name -> (name, S.Relation.npages (P.Catalog.find (M.Db.catalog db) name)))
              (List.sort compare (M.Db.table_names db)) )
        in
        let path = Filename.temp_file "mmdb_model" ".db" in
        M.Db.save !db path;
        let saved = layout !db in
        db := M.Db.load path;
        Sys.remove path;
        layout !db = saved
      | Some (rows', affected), _ -> (
        match exec (dml_sql c.table stmt) with
        | M.Db.Affected n ->
          Hashtbl.replace model c.table rows';
          n = affected
        | M.Db.Rows _ -> false
        | exception Invalid_argument _ -> false)
      | None, _ -> (
        match exec (dml_sql c.table stmt) with
        | _ -> false
        | exception Invalid_argument _ -> true)
    in
    applied && List.for_all (select_matches !db model) probes
  in
  List.for_all step ((Insert (List.init 12 (fun i -> 3 * i)), []) :: c.script)

let qcheck_db_statements_match_model =
  QCheck.Test.make ~name:"Db statement sequences match a list-of-rows model" ~count:300
    (QCheck.make ~print:print_dml_case ~shrink:shrink_dml_case gen_dml_case)
    run_dml_case

let () =
  Alcotest.run "mmdb_sql"
    [
      ( "parse",
        [
          Alcotest.test_case "scan" `Quick test_parse_scan;
          Alcotest.test_case "projection" `Quick test_parse_projection;
          Alcotest.test_case "where" `Quick test_parse_where;
          Alcotest.test_case "operators" `Quick test_parse_operators;
          Alcotest.test_case "join" `Quick test_parse_join;
          Alcotest.test_case "group by" `Quick test_parse_group_by;
          Alcotest.test_case "order by" `Quick test_parse_order_by;
          Alcotest.test_case "set ops" `Quick test_parse_set_ops;
          Alcotest.test_case "case-insensitive" `Quick
            test_parse_case_insensitive;
          Alcotest.test_case "errors" `Quick test_parse_errors;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "filter" `Quick test_sql_end_to_end_filter;
          Alcotest.test_case "join + aggregate" `Quick
            test_sql_end_to_end_join_aggregate;
          Alcotest.test_case "matches algebra" `Quick test_sql_matches_algebra;
          Alcotest.test_case "explain + pushdown" `Quick test_sql_explain;
          Alcotest.test_case "order by end-to-end" `Quick
            test_sql_order_by_end_to_end;
          Alcotest.test_case "set ops end-to-end" `Quick
            test_sql_set_ops_end_to_end;
          Alcotest.test_case "unknown table" `Quick test_sql_unknown_table;
        ] );
      ( "model",
        [
          QCheck_alcotest.to_alcotest qcheck_db_selects_match_model;
          QCheck_alcotest.to_alcotest qcheck_db_selects_match_model_spilling;
          QCheck_alcotest.to_alcotest qcheck_db_statements_match_model;
        ] );
      ( "dml",
        [
          Alcotest.test_case "insert" `Quick test_dml_insert;
          Alcotest.test_case "delete" `Quick test_dml_delete;
          Alcotest.test_case "delete all" `Quick test_dml_delete_all;
          Alcotest.test_case "update" `Quick test_dml_update;
          Alcotest.test_case "indexes maintained" `Quick
            test_dml_maintains_indexes;
          Alcotest.test_case "query through execute" `Quick
            test_dml_query_through_execute;
          Alcotest.test_case "parse errors" `Quick test_dml_parse_errors;
          Alcotest.test_case "create/drop table" `Quick test_ddl_create_drop;
          Alcotest.test_case "single-row inserts pack pages" `Quick
            test_sql_single_row_inserts_pack_pages;
          Alcotest.test_case "insert duplicate key" `Quick
            test_sql_insert_duplicate_key;
          Alcotest.test_case "update duplicate key" `Quick
            test_sql_update_duplicate_key;
          Alcotest.test_case "results free their pages" `Quick
            test_sql_results_free_pages;
          Alcotest.test_case "explain index lookup" `Quick
            test_explain_index_lookup;
          Alcotest.test_case "ddl errors" `Quick test_ddl_errors;
        ] );
    ]
