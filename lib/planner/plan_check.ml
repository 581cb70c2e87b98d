module S = Mmdb_storage
module E = Mmdb_exec
module D = Mmdb_util.Diag

let code_catalogue =
  [
    ("SQL001", "SQL parse error");
    ("PLAN001", "unknown base relation");
    ("PLAN002", "unknown column");
    ("PLAN003", "predicate literal type incompatible with column type");
    ("PLAN004", "join keys have incompatible types or widths");
    ("PLAN005", "set-operation inputs have incompatible schemas");
    ("PLAN006", "aggregate over a non-integer column");
    ("PLAN007", "aggregate with an empty spec list");
    ("PLAN008", "projection with an empty column list");
    ("PLAN009", "duplicate column in a projection");
    ("PLAN101", "redundant DISTINCT under a deduplicating operator (warning)");
    ("PLAN102",
     "predicate selects nothing according to catalog statistics (warning)");
    ("PLAN103",
     "ORDER BY destroyed by an enclosing hash-based operator (warning)");
    ("PLAN104", "string literal wider than the compared column (warning)");
  ]

let render_path rev_segs = String.concat "." ("$" :: List.rev rev_segs)

let ty_string = function
  | S.Schema.Int -> "int"
  | S.Schema.Fixed_string -> "string"

let find_col schema name =
  match S.Schema.column_index schema name with
  | i -> Some (S.Schema.column_at schema i)
  | exception Not_found -> None

let column_names schema =
  List.map (fun (c : S.Schema.column) -> c.S.Schema.name)
    (S.Schema.columns schema)

(* Diagnostics accumulate in source order through a mutable list. *)
type ctx = { catalog : Catalog.t; mutable diags : D.t list }

let err ctx ~code ~path fmt =
  Printf.ksprintf
    (fun m -> ctx.diags <- D.error ~code ~path:(render_path path) m :: ctx.diags)
    fmt

let warn ctx ~code ~path fmt =
  Printf.ksprintf
    (fun m ->
      ctx.diags <- D.warning ~code ~path:(render_path path) m :: ctx.diags)
    fmt

(* Unknown-column error with the available names, to make the CLI output
   actionable. *)
let unknown_column ctx ~path ~what schema name =
  err ctx ~code:"PLAN002" ~path "unknown %s %S (have: %s)" what name
    (String.concat ", " (column_names schema))

(* PLAN102: a predicate over a base-table integer column whose literal
   falls outside the column's observed [min, max]. *)
let check_predicate_stats ctx ~path input (pred : Algebra.predicate) =
  match (input, pred.Algebra.value) with
  | Algebra.Scan table, S.Tuple.VInt v when Catalog.mem ctx.catalog table -> (
    match Catalog.int_bounds ctx.catalog ~table ~column:pred.Algebra.column with
    | Some (mn, mx) ->
      let empty =
        match pred.Algebra.op with
        | Algebra.Eq -> v < mn || v > mx
        | Algebra.Lt -> v <= mn
        | Algebra.Le -> v < mn
        | Algebra.Gt -> v >= mx
        | Algebra.Ge -> v > mx
        | Algebra.Ne -> false
      in
      if empty then
        warn ctx ~code:"PLAN102" ~path
          "predicate %s %s %d selects nothing: %s.%s ranges over [%d, %d]"
          pred.Algebra.column
          (Algebra.op_string pred.Algebra.op)
          v table pred.Algebra.column mn mx
    | None | (exception Not_found) -> ())
  | _ -> ()

let check_predicate ctx ~path input schema (pred : Algebra.predicate) =
  match find_col schema pred.Algebra.column with
  | None -> unknown_column ctx ~path ~what:"predicate column" schema pred.Algebra.column
  | Some col -> (
    match (col.S.Schema.ty, pred.Algebra.value) with
    | S.Schema.Int, S.Tuple.VInt _ -> check_predicate_stats ctx ~path input pred
    | S.Schema.Fixed_string, S.Tuple.VStr s ->
      if String.length s > col.S.Schema.width then
        warn ctx ~code:"PLAN104" ~path
          "string literal %S is %d bytes wide but column %S holds %d: the \
           comparison can never be an equality"
          s (String.length s) pred.Algebra.column col.S.Schema.width
    | S.Schema.Int, S.Tuple.VStr s ->
      err ctx ~code:"PLAN003" ~path
        "predicate compares integer column %S with string literal %S"
        pred.Algebra.column s
    | S.Schema.Fixed_string, S.Tuple.VInt v ->
      err ctx ~code:"PLAN003" ~path
        "predicate compares string column %S with integer literal %d"
        pred.Algebra.column v)

(* Warn when [child]'s work is discarded by the enclosing operator
   [inside]. *)
let check_discarded ctx ~path ~inside child =
  match child with
  | Algebra.Project { distinct = true; _ } ->
    warn ctx ~code:"PLAN101" ~path
      "DISTINCT is redundant under %s, which deduplicates or regroups its \
       input anyway"
      inside
  | Algebra.Order_by { column; _ } ->
    warn ctx ~code:"PLAN103" ~path
      "ORDER BY %s is wasted: the enclosing %s does not preserve input order"
      column inside
  | _ -> ()

let rec dedup = function
  | [] -> []
  (* perf_lint: projection column lists are a handful of names *)
  | x :: rest -> if List.mem x rest then dedup rest else x :: dedup rest

(* Returns the node's output schema when it could be determined; [None]
   suppresses dependent checks upstream (no cascading errors). *)
let rec infer ctx path expr : S.Schema.t option =
  match expr with
  | Algebra.Scan name ->
    if Catalog.mem ctx.catalog name then
      Some (S.Relation.schema (Catalog.find ctx.catalog name))
    else begin
      err ctx ~code:"PLAN001" ~path "unknown relation %S (have: %s)" name
        (String.concat ", " (List.sort compare (Catalog.names ctx.catalog)));
      None
    end
  | Algebra.Select { input; pred } ->
    let s = infer ctx ("input" :: path) input in
    (match s with
    | Some schema -> check_predicate ctx ~path input schema pred
    | None -> ());
    s
  | Algebra.Project { input; columns; distinct = _ } -> (
    let s = infer ctx ("input" :: path) input in
    if columns = [] then begin
      err ctx ~code:"PLAN008" ~path "projection with an empty column list";
      None
    end
    else begin
      let dups =
        (* perf_lint: projection column lists are a handful of names *)
        dedup (List.filter (fun c ->
            List.length (List.filter (String.equal c) columns) > 1) columns)
      in
      List.iter
        (fun c ->
          err ctx ~code:"PLAN009" ~path "column %S appears more than once in \
                                         the projection" c)
        dups;
      match s with
      | None -> None
      | Some schema ->
        let missing =
          List.filter (fun c -> find_col schema c = None) (dedup columns)
        in
        List.iter
          (fun c -> unknown_column ctx ~path ~what:"projected column" schema c)
          missing;
        if dups = [] && missing = [] then
          Some (E.Projection.project_schema schema ~cols:columns)
        else None
    end)
  | Algebra.Join { left; right; left_key; right_key } -> (
    let ls = infer ctx ("left" :: path) left in
    let rs = infer ctx ("right" :: path) right in
    check_discarded ctx ~path:("left" :: path) ~inside:"a join" left;
    check_discarded ctx ~path:("right" :: path) ~inside:"a join" right;
    match (ls, rs) with
    | Some lsch, Some rsch -> (
      let lcol = find_col lsch left_key in
      let rcol = find_col rsch right_key in
      if lcol = None then
        unknown_column ctx ~path:("left" :: path) ~what:"join key" lsch left_key;
      if rcol = None then
        unknown_column ctx ~path:("right" :: path) ~what:"join key" rsch
          right_key;
      match (lcol, rcol) with
      | Some lc, Some rc ->
        if lc.S.Schema.ty <> rc.S.Schema.ty || lc.S.Schema.width <> rc.S.Schema.width
        then begin
          err ctx ~code:"PLAN004" ~path
            "join keys are incompatible: %S is %s(%d) but %S is %s(%d)"
            left_key (ty_string lc.S.Schema.ty) lc.S.Schema.width right_key
            (ty_string rc.S.Schema.ty) rc.S.Schema.width;
          None
        end
        else
          Some
            (E.Join_common.result_schema
               ~r_schema:(S.Schema.with_key lsch left_key)
               ~s_schema:(S.Schema.with_key rsch right_key))
      | _ -> None)
    | _ -> None)
  | Algebra.Aggregate { input; group_by; aggs } -> (
    let s = infer ctx ("input" :: path) input in
    check_discarded ctx ~path:("input" :: path) ~inside:"an aggregate" input;
    if aggs = [] then begin
      err ctx ~code:"PLAN007" ~path "aggregate with an empty spec list";
      None
    end
    else
      match s with
      | None -> None
      | Some schema ->
        let group_ok =
          match find_col schema group_by with
          | Some _ -> true
          | None ->
            unknown_column ctx ~path ~what:"group-by column" schema group_by;
            false
        in
        let agg_ok sp =
          match sp with
          | E.Aggregate.Count -> true
          | E.Aggregate.Sum c | E.Aggregate.Min c | E.Aggregate.Max c
          | E.Aggregate.Avg c -> (
            match find_col schema c with
            | None ->
              unknown_column ctx ~path ~what:"aggregate column" schema c;
              false
            | Some col ->
              if col.S.Schema.ty <> S.Schema.Int then begin
                err ctx ~code:"PLAN006" ~path
                  "aggregate over non-integer column %S (type %s)" c
                  (ty_string col.S.Schema.ty);
                false
              end
              else true)
        in
        let aggs_ok = List.for_all agg_ok aggs in
        if group_ok && aggs_ok then
          Some (E.Aggregate.result_schema (S.Schema.with_key schema group_by) aggs)
        else None)
  | Algebra.Order_by { input; column; descending = _ } -> (
    let s = infer ctx ("input" :: path) input in
    match s with
    | None -> None
    | Some schema -> (
      match find_col schema column with
      | Some _ -> Some (S.Schema.with_key schema column)
      | None ->
        unknown_column ctx ~path ~what:"order-by column" schema column;
        None))
  | Algebra.Set_op { op = _; left; right } -> (
    let ls = infer ctx ("left" :: path) left in
    let rs = infer ctx ("right" :: path) right in
    check_discarded ctx ~path:("left" :: path) ~inside:"a set operation" left;
    check_discarded ctx ~path:("right" :: path) ~inside:"a set operation" right;
    match (ls, rs) with
    | Some lsch, Some rsch ->
      let lcols = S.Schema.columns lsch and rcols = S.Schema.columns rsch in
      (* perf_lint: schema widths are tiny; runs once per set-op node *)
      let nl = List.length lcols and nr = List.length rcols in
      if nl <> nr then begin
        err ctx ~code:"PLAN005" ~path
          "set-operation inputs have %d and %d columns" nl nr;
        None
      end
      else begin
        let mismatches =
          List.filter_map
            (fun ((l : S.Schema.column), (r : S.Schema.column)) ->
              if l.S.Schema.ty <> r.S.Schema.ty || l.S.Schema.width <> r.S.Schema.width
              then Some (l, r)
              else None)
            (List.combine lcols rcols)
        in
        List.iter
          (fun ((l : S.Schema.column), (r : S.Schema.column)) ->
            err ctx ~code:"PLAN005" ~path
              "set-operation column mismatch: %S is %s(%d) but %S is %s(%d)"
              l.S.Schema.name (ty_string l.S.Schema.ty) l.S.Schema.width
              r.S.Schema.name (ty_string r.S.Schema.ty) r.S.Schema.width)
          mismatches;
        if mismatches = [] then Some lsch else None
      end
    | _ -> None)

let check catalog expr =
  let ctx = { catalog; diags = [] } in
  ignore (infer ctx [] expr);
  List.rev ctx.diags

let check_schema catalog expr =
  let ctx = { catalog; diags = [] } in
  match infer ctx [] expr with
  | Some schema when not (D.has_errors ctx.diags) -> Ok schema
  | Some _ | None -> Error (List.rev ctx.diags)

let ok catalog expr = not (D.has_errors (check catalog expr))
