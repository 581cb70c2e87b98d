(* point-mix: single-row SQL through [Db.execute] on a table that fits
   the default memory budget — 90% SELECT by key, 10% INSERT.  Results
   are one row, so per-statement parse, check and plan cost shows, and
   writes run beside reads on one table. *)

module S = Mmdb_storage
module P = Mmdb_planner
module X = Mmdb_util.Xorshift
module Db = Mmdb.Db

let tail_q = 0.95
let table = "acct"

(* 48-byte rows: about 240 pages at 20,000 rows, under the default
   |M| = 256. *)
let schema =
  S.Schema.create ~key:"id"
    [
      S.Schema.column "id" S.Schema.Int;
      S.Schema.column "grp" S.Schema.Int;
      S.Schema.column ~width:32 "pad" S.Schema.Fixed_string;
    ]

type size = { rows : int; warm : int; measured : int }

let size cfg = Bench.scale cfg { rows = 20_000; warm = 50; measured = 300 } { rows = 300; warm = 5; measured = 40 }

let pad id = Printf.sprintf "acct-%027d" id
let row id grp = [ S.Tuple.VInt id; S.Tuple.VInt grp; S.Tuple.VStr (pad id) ]

type stmt = Select of int * S.Tuple.value list | Insert of S.Tuple.value list

type inputs = { initial : S.Tuple.value list array; stmts : (string * stmt) array }

(* Warm-up and measured statements form one sequence, so later SELECTs
   find rows inserted earlier in it.  Exactly one statement in ten is an
   INSERT, at seeded positions: the mix, and so the work, is the same at
   every seed. *)
let inputs cfg sz =
  let rng = X.create cfg.Bench.seed in
  let initial = Array.init sz.rows (fun id -> row id (X.int rng 1000)) in
  let grp_of = Hashtbl.create (sz.rows * 2) in
  Array.iteri (fun id r -> Hashtbl.replace grp_of id r) initial;
  let total = sz.warm + sz.measured in
  let is_insert = Array.init total (fun i -> i mod 10 = 0) in
  X.shuffle rng is_insert;
  let n = ref sz.rows in
  let stmts =
    Array.map
      (fun insert ->
        if insert then begin
          let id = !n and grp = X.int rng 1000 in
          let r = row id grp in
          Hashtbl.replace grp_of id r;
          incr n;
          (Printf.sprintf "INSERT INTO %s VALUES (%d, %d, '%s')" table id grp (pad id), Insert r)
        end
        else
          let k = X.int rng !n in
          (Printf.sprintf "SELECT * FROM %s WHERE id = %d" table k, Select (k, Hashtbl.find grp_of k)))
      is_insert
  in
  { initial; stmts }

let load inp =
  let db = Db.create () in
  Db.create_table db ~name:table ~schema;
  Db.insert_many db ~table (Array.to_list inp.initial);
  Db.create_index db ~table Db.Btree_index;
  db

let correct stmt (res : Db.exec_result) =
  match (stmt, res) with
  | Select (_, r), Db.Rows [ got ] -> got = r
  | Insert _, Db.Affected 1 -> true
  | (Select _ | Insert _), (Db.Rows _ | Db.Affected _) -> false

let contents db = S.Relation.to_list (P.Catalog.find (Db.catalog db) table)

let round sz inp =
  let db, setup_ns = Bench.time_ns (fun () -> load inp) in
  let failed = ref 0 in
  let exec (text, stmt) =
    match Db.execute db text with
    | res -> if not (correct stmt res) then incr failed
    | exception _ -> incr failed
  in
  for i = 0 to sz.warm - 1 do
    exec inp.stmts.(i)
  done;
  let m = sz.measured in
  let lat = Array.make m 0.0 and sim_s = Array.make m 0.0 in
  let (), phase =
    Bench.measured_phase ~state:db (fun () ->
        for j = 0 to m - 1 do
          let s0 = S.Env.elapsed (Db.env db) in
          let t0 = Bench.now_ns () in
          exec inp.stmts.(sz.warm + j);
          lat.(j) <- float_of_int (Bench.now_ns () - t0);
          sim_s.(j) <- S.Env.elapsed (Db.env db) -. s0
        done)
  in
  ( {
      Bench.setup_ns;
      op_ns = lat;
      sim_s;
      attempted = m;
      failed = !failed;
      phase;
    },
    contents db )

(* [Db.execute] as its layer calls.  A SELECT goes parse, check, plan,
   run, decode, and also returns its plan; an INSERT goes parse, append
   with index maintenance, seal, statistics refresh. *)
let traced_statement tr db text =
  let cat = Db.catalog db in
  Trace.op tr "db.execute" (fun () ->
      match Trace.span tr "sql.parse" (fun () -> P.Sql.parse_statement text) with
      | Ok (P.Sql.Query expr) ->
        let rows, plan = Query_trace.run_expr tr db expr in
        (Db.Rows rows, Some plan)
      | Ok (P.Sql.Insert { table; rows }) ->
        List.iter (fun values -> Trace.span tr "db.insert" (fun () -> Db.insert db ~table values)) rows;
        Trace.span tr "relation.seal" (fun () -> S.Relation.seal (P.Catalog.find cat table));
        Trace.span tr "catalog.refresh" (fun () -> P.Catalog.refresh cat table);
        (Db.Affected (List.length rows), None)
      | Ok (P.Sql.Delete _ | P.Sql.Update _ | P.Sql.Create_table _ | P.Sql.Drop_table _) | Error _ ->
        invalid_arg "point-mix: unexpected statement")

let traced_round tr sz inp totals =
  let db = load inp in
  let failed = ref 0 in
  Array.iteri
    (fun i (text, stmt) ->
      let measured = i >= sz.warm in
      match traced_statement (if measured then Some tr else None) db text with
      | res, plan ->
        if measured then Option.iter (Query_trace.observe db totals) plan;
        if not (correct stmt res) then incr failed
      | exception _ -> incr failed)
    inp.stmts;
  (* The index probe the plan does not use, on the same keys. *)
  let keys =
    Array.of_list
      (List.filter_map
         (function _, Select (k, r) -> Some (k, r) | _, Insert _ -> None)
         (Array.to_list inp.stmts))
  in
  let (), ns =
    Bench.time_ns (fun () ->
        Array.iter
          (fun (k, r) -> if Db.lookup db ~table ~key:(S.Tuple.VInt k) <> Some r then incr failed)
          keys)
  in
  (!failed, contents db, float_of_int ns /. float_of_int (max 1 (Array.length keys)))

let run (cfg : Bench.cfg) =
  let sz = size cfg in
  let inp = inputs cfg sz in
  if not cfg.traced then
    Bench.untraced_outcome ~tail_q
      (List.map fst (Bench.rounds cfg ~n:8 (fun () -> round sz inp)))
      ~exact_extra:[] ~extra:[]
  else begin
    let tr = Trace.create ~capacity:20_000 in
    let totals = Query_trace.new_totals () in
    let results =
      Bench.rounds cfg ~n:3 (fun () ->
          let r, table_after = round sz inp in
          let failed, traced_table, lookup_ns = traced_round tr sz inp totals in
          (r, failed + (if traced_table = table_after then 0 else 1), lookup_ns))
    in
    let rs = List.map (fun (r, _, _) -> r) results in
    let selects = match Trace.find tr "optimizer.plan" with Some s -> s.calls | None -> 0 in
    let metrics =
      Bench.per_layer tr
        ~values:
          ((Bench.trace_overhead tr ~root:"db.execute" rs
           :: Query_trace.operator_values totals ~queries:selects)
          @ Bench.gc_values rs)
    in
    let mean name = Bench.mean_ns_of (Trace.find tr name) in
    let named =
      Query_trace.planner_named tr
      @ [
          Bench.metric "db.lookup_us" "us"
            (Bench.Stats.mean (Array.of_list (List.map (fun (_, _, ns) -> ns) results)) /. 1e3);
          Bench.metric "db.insert_us" "us" (mean "db.insert" /. 1e3);
          Bench.metric "relation.seal_us" "us" (mean "relation.seal" /. 1e3);
          Bench.metric "catalog.refresh_ms" "ms" (mean "catalog.refresh" /. 1e6);
        ]
    in
    let report = Bench.trace_report cfg ~workload:"point-mix" tr ~named:(metrics @ named) in
    Bench.traced_outcome rs
      ~traced_attempted:(sz.measured * List.length rs)
      ~traced_failed:(Bench.sum_int (fun (_, f, _) -> f) results)
      ~metrics ~report
  end
