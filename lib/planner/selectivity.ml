module S = Mmdb_storage

let default_selectivity = 1.0 /. 3.0

let predicate _catalog ~table_hint (pred : Algebra.predicate) =
  match table_hint with
  | None -> default_selectivity
  | Some (cs : Catalog.column_stats) -> (
    let nd = max 1 cs.Catalog.ndistinct in
    match pred.Algebra.op with
    | Algebra.Eq -> 1.0 /. float_of_int nd
    | Algebra.Ne -> 1.0 -. (1.0 /. float_of_int nd)
    | Algebra.Lt | Algebra.Le | Algebra.Gt | Algebra.Ge -> (
      let below v =
        (* Fraction of values below v: equi-depth histogram when present,
           min/max interpolation otherwise. *)
        match cs.Catalog.quantiles with
        | Some q when Array.length q > 0 ->
          let k = Array.length q in
          let pos = ref 0 in
          while !pos < k && q.(!pos) < v do
            incr pos
          done;
          float_of_int !pos /. float_of_int (k + 1)
        | Some _ | None -> (
          match (cs.Catalog.min_int, cs.Catalog.max_int) with
          | Some lo, Some hi when hi > lo ->
            Float.min 1.0
              (Float.max 0.0 (float_of_int (v - lo) /. float_of_int (hi - lo)))
          | _ -> default_selectivity)
      in
      match pred.Algebra.value with
      | S.Tuple.VInt v -> (
        let frac = below v in
        match pred.Algebra.op with
        | Algebra.Lt | Algebra.Le -> frac
        | Algebra.Gt | Algebra.Ge -> 1.0 -. frac
        | Algebra.Eq | Algebra.Ne -> assert false)
      | S.Tuple.VStr _ -> default_selectivity))

(* Column stats for the column named in an expression, when it can be
   traced to a base relation. *)
let rec find_column_stats catalog expr column =
  match expr with
  | Algebra.Scan name -> (
    match Catalog.column_stats catalog ~table:name ~column with
    | cs -> Some cs
    | exception Not_found -> None)
  | Algebra.Select { input; _ } -> find_column_stats catalog input column
  | Algebra.Project { input; columns; _ } ->
    if List.mem column columns then find_column_stats catalog input column
    else None
  | Algebra.Join { left; right; _ } ->
    (* A join output column is its side's column prefixed [r_] or [s_]
       (Join_common.result_schema); an unprefixed name is looked up on
       either side. *)
    let side prefix input () =
      if String.starts_with ~prefix column then
        let pl = String.length prefix in
        find_column_stats catalog input (String.sub column pl (String.length column - pl))
      else None
    in
    List.find_map (fun f -> f ())
      [ side "r_" left; side "s_" right; side "" left; side "" right ]
  | Algebra.Order_by { input; _ } -> find_column_stats catalog input column
  | Algebra.Set_op { left; _ } -> find_column_stats catalog left column
  | Algebra.Aggregate _ -> None

let rec estimate catalog expr =
  match expr with
  | Algebra.Scan name -> (
    match Catalog.stats catalog name with
    | ts -> float_of_int ts.Catalog.ntuples
    | exception Not_found -> 1000.0)
  | Algebra.Select { input; pred } ->
    let hint = find_column_stats catalog input pred.Algebra.column in
    estimate catalog input *. predicate catalog ~table_hint:hint pred
  | Algebra.Project { input; columns; distinct } ->
    let base = estimate catalog input in
    if not distinct then base
    else begin
      (* Capped by the product of projected column cardinalities. *)
      let cap =
        List.fold_left
          (fun acc c ->
            match find_column_stats catalog input c with
            | Some cs -> acc *. float_of_int (max 1 cs.Catalog.ndistinct)
            | None -> acc *. base)
          1.0 columns
      in
      Float.min base cap
    end
  | Algebra.Join { left; right; left_key; right_key } ->
    let nl = estimate catalog left and nr = estimate catalog right in
    let dl =
      match find_column_stats catalog left left_key with
      | Some cs -> max 1 cs.Catalog.ndistinct
      | None -> 10
    in
    let dr =
      match find_column_stats catalog right right_key with
      | Some cs -> max 1 cs.Catalog.ndistinct
      | None -> 10
    in
    nl *. nr /. float_of_int (max dl dr)
  | Algebra.Aggregate { input; group_by; _ } -> (
    match find_column_stats catalog input group_by with
    | Some cs -> float_of_int (max 1 cs.Catalog.ndistinct)
    | None -> Float.max 1.0 (estimate catalog input /. 10.0))
  | Algebra.Order_by { input; _ } -> estimate catalog input
  | Algebra.Set_op { op; left; right } -> (
    let nl = estimate catalog left and nr = estimate catalog right in
    match op with
    | Algebra.Union -> nl +. nr
    | Algebra.Intersect -> Float.min nl nr
    | Algebra.Except -> nl)

let estimated_pages catalog expr ~tuples_per_page =
  let tuples = estimate catalog expr in
  if tuples <= 0.0 then 0
  else max 1 (int_of_float (Float.ceil (tuples /. float_of_int tuples_per_page)))
