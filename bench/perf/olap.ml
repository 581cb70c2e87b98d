(* olap: the paper's sections 3-4 as one SQL statement — a selective
   join plus grouping over relations larger than the memory budget |M|,
   so hybrid hash spills partitions.  No log or lock work runs. *)

module S = Mmdb_storage
module P = Mmdb_planner
module X = Mmdb_util.Xorshift
module Db = Mmdb.Db

let tail_q = 0.9
let mem_pages = 64
let groups = 100
let rv_range = 10_000

(* [steps] queries per round cycle the selectivity of [r_rv < x] from
   1/steps to 100%. *)
type size = { tuples : int; steps : int; warm : int }

let size cfg = Bench.scale cfg { tuples = 20_000; steps = 10; warm = 1 } { tuples = 400; steps = 4; warm = 1 }

(* 100-byte tuples: two 8-byte integers and an 84-byte pad. *)
let schema key value =
  S.Schema.create ~key
    [
      S.Schema.column key S.Schema.Int;
      S.Schema.column value S.Schema.Int;
      S.Schema.column ~width:84 "pad" S.Schema.Fixed_string;
    ]

let pad = String.make 84 'p'

type inputs = {
  r_rows : (int * int) array;  (* rk, rv *)
  s_rows : (int * int) array;  (* sk, sv *)
  queries : (string * int) array;  (* statement, its bound x *)
}

let query x =
  Printf.sprintf "SELECT s_sv, COUNT(*) FROM r JOIN s ON rk = sk WHERE r_rv < %d GROUP BY s_sv" x

let inputs cfg sz =
  let rng = X.create cfg.Bench.seed in
  let r_rows = Array.init sz.tuples (fun i -> (i, X.int rng rv_range)) in
  let keys = Array.init sz.tuples Fun.id in
  X.shuffle rng keys;
  let s_rows = Array.map (fun k -> (k, X.int rng groups)) keys in
  let queries =
    Array.init sz.steps (fun i ->
        let x = (i + 1) * rv_range / sz.steps in
        (query x, x))
  in
  { r_rows; s_rows; queries }

(* The bench's own join: per-group counts of S tuples whose partner in R
   passes the filter. *)
let expected inp x =
  let rv = Array.make (Array.length inp.r_rows) 0 in
  Array.iter (fun (k, v) -> rv.(k) <- v) inp.r_rows;
  let counts = Array.make groups 0 in
  Array.iter (fun (k, g) -> if rv.(k) < x then counts.(g) <- counts.(g) + 1) inp.s_rows;
  List.filter_map
    (fun g -> if counts.(g) > 0 then Some [ S.Tuple.VInt g; S.Tuple.VInt counts.(g) ] else None)
    (List.init groups Fun.id)

let load inp =
  let db = Db.create ~mem_pages () in
  let add name (k, v) rows =
    Db.create_table db ~name ~schema:(schema k v);
    Db.insert_many db ~table:name
      (Array.to_list
         (Array.map (fun (a, b) -> [ S.Tuple.VInt a; S.Tuple.VInt b; S.Tuple.VStr pad ]) rows))
  in
  add "r" ("rk", "rv") inp.r_rows;
  add "s" ("sk", "sv") inp.s_rows;
  db

let sim db = S.Env.elapsed (Db.env db)

let round sz inp oracle =
  let db, setup_ns = Bench.time_ns (fun () -> load inp) in
  let failed = ref 0 in
  let check i rows = if List.sort compare rows <> oracle.(i) then incr failed in
  for w = 0 to sz.warm - 1 do
    let i = sz.steps - 1 - (w mod sz.steps) in
    check i (Db.sql db (fst inp.queries.(i)))
  done;
  let n = sz.steps in
  let lat = Array.make n 0.0 and sim_s = Array.make n 0.0 in
  let (), phase =
    Bench.measured_phase ~state:db (fun () ->
        Array.iteri
          (fun i (text, _) ->
            let s0 = sim db in
            let t0 = Bench.now_ns () in
            (match Db.sql db text with
            | rows ->
              lat.(i) <- float_of_int (Bench.now_ns () - t0);
              check i rows
            | exception _ ->
              lat.(i) <- float_of_int (Bench.now_ns () - t0);
              incr failed);
            sim_s.(i) <- sim db -. s0)
          inp.queries)
  in
  {
    Bench.setup_ns;
    op_ns = lat;
    sim_s;
    attempted = n;
    failed = !failed;
    phase;
  }

let traced_round tr inp oracle totals =
  let db = load inp in
  let failed = ref 0 in
  Array.iteri
    (fun i (text, _) ->
      match
        Trace.op tr "db.sql" (fun () ->
            Query_trace.run_expr tr db (Trace.span tr "sql.parse" (fun () -> P.Sql.parse_exn text)))
      with
      | rows, plan ->
        Query_trace.observe db totals plan;
        if List.sort compare rows <> oracle.(i) then incr failed
      | exception _ -> incr failed)
    inp.queries;
  !failed

let run (cfg : Bench.cfg) =
  let sz = size cfg in
  let inp = inputs cfg sz in
  let oracle = Array.map (fun (_, x) -> List.sort compare (expected inp x)) inp.queries in
  if not cfg.traced then
    Bench.untraced_outcome ~tail_q
      (Bench.rounds cfg ~n:12 (fun () -> round sz inp oracle))
      ~exact_extra:[] ~extra:[]
  else begin
    let tr = Trace.create ~capacity:20_000 in
    let totals = Query_trace.new_totals () in
    let results =
      Bench.rounds cfg ~n:4 (fun () ->
          let r = round sz inp oracle in
          (r, traced_round (Some tr) inp oracle totals))
    in
    let rs = List.map fst results in
    let queries = sz.steps * List.length rs in
    let values = Query_trace.operator_values totals ~queries in
    let metrics =
      Bench.per_layer tr
        ~values:((Bench.trace_overhead tr ~root:"db.sql" rs :: values) @ Bench.gc_values rs)
    in
    let named =
      Query_trace.planner_named tr
      @ [
          Bench.metric "exec.join.self_sim_s" "s" (totals.Query_trace.join_sim /. float_of_int (max 1 queries));
          Bench.metric "optimizer.est_over_obs" "ratio" (totals.join_est /. totals.join_sim);
        ]
    in
    let report = Bench.trace_report cfg ~workload:"olap" tr ~named:(metrics @ named) in
    Bench.traced_outcome rs ~traced_attempted:queries
      ~traced_failed:(Bench.sum_int snd results)
      ~metrics ~report
  end
