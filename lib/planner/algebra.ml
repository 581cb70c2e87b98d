module S = Mmdb_storage

type cmp_op = Eq | Ne | Lt | Le | Gt | Ge

type set_op = Mmdb_exec.Aggregate.set_op = Union | Intersect | Except

type predicate = {
  column : string;
  op : cmp_op;
  value : S.Tuple.value;
}

type expr =
  | Scan of string
  | Select of { input : expr; pred : predicate }
  | Project of { input : expr; columns : string list; distinct : bool }
  | Join of { left : expr; right : expr; left_key : string; right_key : string }
  | Aggregate of {
      input : expr;
      group_by : string;
      aggs : Mmdb_exec.Aggregate.spec list;
    }
  | Order_by of { input : expr; column : string; descending : bool }
  | Set_op of { op : set_op; left : expr; right : expr }

let scan name = Scan name
let select ~column ~op ~value input = Select { input; pred = { column; op; value } }
let project ?(distinct = false) ~columns input = Project { input; columns; distinct }
let join ~left_key ~right_key left right = Join { left; right; left_key; right_key }
let aggregate ~group_by ~aggs input = Aggregate { input; group_by; aggs }

let order_by ?(descending = false) ~column input =
  Order_by { input; column; descending }

let set_op op left right = Set_op { op; left; right }

let cmp_result op c =
  match op with
  | Eq -> c = 0
  | Ne -> c <> 0
  | Lt -> c < 0
  | Le -> c <= 0
  | Gt -> c > 0
  | Ge -> c >= 0

let eval_predicate schema pred =
  let idx = S.Schema.column_index schema pred.column in
  let off = S.Schema.offset schema idx and op = pred.op in
  let col = S.Schema.column_at schema idx in
  let width = col.S.Schema.width in
  match (col.S.Schema.ty, pred.value) with
  | S.Schema.Int, S.Tuple.VInt v ->
    fun tuple -> cmp_result op (Int.compare (S.Tuple.decode_int_at tuple off width) v)
  | S.Schema.Fixed_string, S.Tuple.VStr v ->
    fun tuple -> cmp_result op (String.compare (S.Tuple.decode_str_at tuple off width) v)
  | S.Schema.Int, S.Tuple.VStr _ | S.Schema.Fixed_string, S.Tuple.VInt _ ->
    invalid_arg ("Algebra: predicate type mismatch on column " ^ pred.column)

let rec base_relations = function
  | Scan name -> [ name ]
  | Select { input; _ } | Project { input; _ } | Aggregate { input; _ }
  | Order_by { input; _ } ->
    base_relations input
  | Join { left; right; _ } | Set_op { left; right; _ } ->
    base_relations left @ base_relations right

let op_string = function
  | Eq -> "="
  | Ne -> "<>"
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="

let value_string = function
  | S.Tuple.VInt v -> string_of_int v
  | S.Tuple.VStr s -> Printf.sprintf "%S" s

let rec pp ppf = function
  | Scan name -> Format.fprintf ppf "%s" name
  | Select { input; pred } ->
    Format.fprintf ppf "select[%s %s %s](%a)" pred.column (op_string pred.op)
      (value_string pred.value) pp input
  | Project { input; columns; distinct } ->
    Format.fprintf ppf "project%s[%s](%a)"
      (if distinct then "-distinct" else "")
      (String.concat "," columns) pp input
  | Join { left; right; left_key; right_key } ->
    Format.fprintf ppf "join[%s=%s](%a, %a)" left_key right_key pp left pp
      right
  | Aggregate { input; group_by; aggs } ->
    Format.fprintf ppf "aggregate[by %s; %d aggs](%a)" group_by
      (* perf_lint: pretty-printer; one length per aggregate node *)
      (List.length aggs) pp input
  | Order_by { input; column; descending } ->
    Format.fprintf ppf "order[%s%s](%a)" column
      (if descending then " desc" else "")
      pp input
  | Set_op { op; left; right } ->
    let name =
      match op with
      | Union -> "union"
      | Intersect -> "intersect"
      | Except -> "except"
    in
    Format.fprintf ppf "%s(%a, %a)" name pp left pp right
