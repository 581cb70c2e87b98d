module S = Mmdb_storage
module E = Mmdb_exec
module JM = Mmdb_model.Join_model

type config = {
  mem_pages : int;
  fudge : float;
  allow_hash : bool;
}

let default_config = { mem_pages = 256; fudge = 1.2; allow_hash = true }

type join_choice = {
  algorithm : E.Joiner.algorithm;
  swapped : bool;
  est_build_pages : int;
  est_probe_pages : int;
  est_mem_pages : int;
  est_workload : JM.workload;
  est_ops : JM.ops;
  est_seconds : float;
}

type grouping = { est_groups : int; est_partitions : int }

type plan =
  | P_scan of string
  | P_index_lookup of {
      table : string;
      column : string;
      value : S.Tuple.value;
      kind : Catalog.index_kind;
    }
  | P_filter of { input : plan; pred : Algebra.predicate }
  | P_project of { input : plan; columns : string list; distinct : grouping option }
  | P_join of {
      left : plan;
      right : plan;
      left_key : string;
      right_key : string;
      choice : join_choice;
    }
  | P_aggregate of {
      input : plan;
      group_by : string;
      aggs : Mmdb_exec.Aggregate.spec list;
      grouping : grouping;
    }
  | P_order_by of { input : plan; column : string; descending : bool }
  | P_set_op of { op : Algebra.set_op; left : plan; right : plan; grouping : grouping }

let unknown_column what name =
  invalid_arg (Printf.sprintf "Optimizer: unknown %s %s" what name)

let rec output_schema catalog = function
  | Algebra.Scan name -> S.Relation.schema (Catalog.find catalog name)
  | Algebra.Select { input; pred } ->
    let schema = output_schema catalog input in
    (* Validate the column exists. *)
    (try ignore (S.Schema.column_index schema pred.Algebra.column)
     with Not_found ->
       unknown_column "column" pred.Algebra.column);
    schema
  | Algebra.Project { input; columns; _ } ->
    E.Projection.project_schema (output_schema catalog input) ~cols:columns
  | Algebra.Join { left; right; left_key; right_key } ->
    let ls = output_schema catalog left and rs = output_schema catalog right in
    let rekey schema key =
      try S.Schema.with_key schema key
      with Not_found -> unknown_column "join column" key
    in
    Mmdb_exec.Join_common.result_schema
      ~r_schema:(rekey ls left_key)
      ~s_schema:(rekey rs right_key)
  | Algebra.Aggregate { input; group_by; aggs } ->
    let schema = output_schema catalog input in
    let rekeyed =
      try S.Schema.with_key schema group_by
      with Not_found -> unknown_column "column" group_by
    in
    E.Aggregate.result_schema rekeyed aggs
  | Algebra.Order_by { input; column; _ } -> (
    let schema = output_schema catalog input in
    try S.Schema.with_key schema column
    with Not_found -> unknown_column "column" column)
  | Algebra.Set_op { left; right; _ } ->
    let ls = output_schema catalog left and rs = output_schema catalog right in
    if S.Schema.tuple_width ls <> S.Schema.tuple_width rs then
      invalid_arg "Optimizer: set operation over incompatible tuple widths";
    ls

let schema_has schema column =
  match S.Schema.column_index schema column with
  | _ -> true
  | exception Not_found -> false

let strip prefix s =
  let pl = String.length prefix in
  if String.length s > pl && String.sub s 0 pl = prefix then
    Some (String.sub s pl (String.length s - pl))
  else None

(* Push each selection as far down the tree as its column allows. *)
let rec push_down catalog expr =
  match expr with
  | Algebra.Scan _ -> expr
  | Algebra.Select { input; pred } -> (
    let input = push_down catalog input in
    match input with
    | Algebra.Join { left; right; left_key; right_key } -> (
      let ls = output_schema catalog left in
      let rs = output_schema catalog right in
      let try_side prefix side_schema =
        match strip prefix pred.Algebra.column with
        | Some base when schema_has side_schema base ->
          Some { pred with Algebra.column = base }
        | Some _ | None ->
          if
            (* Unprefixed reference that uniquely matches one side. *)
            schema_has side_schema pred.Algebra.column
          then Some pred
          else None
      in
      match (try_side "r_" ls, try_side "s_" rs) with
      | Some p, None ->
        push_down catalog
          (Algebra.Join
             {
               left = Algebra.Select { input = left; pred = p };
               right;
               left_key;
               right_key;
             })
      | None, Some p ->
        push_down catalog
          (Algebra.Join
             {
               left;
               right = Algebra.Select { input = right; pred = p };
               left_key;
               right_key;
             })
      | Some _, Some _ | None, None -> Algebra.Select { input; pred })
    | _ -> Algebra.Select { input; pred })
  | Algebra.Project { input; columns; distinct } ->
    Algebra.Project { input = push_down catalog input; columns; distinct }
  | Algebra.Join { left; right; left_key; right_key } ->
    Algebra.Join
      {
        left = push_down catalog left;
        right = push_down catalog right;
        left_key;
        right_key;
      }
  | Algebra.Aggregate { input; group_by; aggs } ->
    Algebra.Aggregate { input = push_down catalog input; group_by; aggs }
  | Algebra.Order_by { input; column; descending } ->
    Algebra.Order_by { input = push_down catalog input; column; descending }
  | Algebra.Set_op { op; left; right } ->
    Algebra.Set_op
      { op; left = push_down catalog left; right = push_down catalog right }

let tuples_per_page_of catalog expr =
  let schema = output_schema catalog expr in
  (* Page size comes from the first base relation's disk. *)
  let page_size =
    match Algebra.base_relations expr with
    | name :: _ -> S.Disk.page_size (S.Relation.disk (Catalog.find catalog name))
    | [] -> 4096
  in
  S.Page.capacity ~page_size ~tuple_width:(S.Schema.tuple_width schema)

let est_pages catalog expr =
  max 1 (Selectivity.estimated_pages catalog expr
           ~tuples_per_page:(tuples_per_page_of catalog expr))

let choose_join catalog cfg left right =
  let lp = est_pages catalog left and rp = est_pages catalog right in
  let swapped = rp < lp in
  let build, probe = if swapped then (right, left) else (left, right) in
  let build_pages = min lp rp and probe_pages = max lp rp in
  let workload =
    {
      JM.r_pages = build_pages;
      JM.s_pages = probe_pages;
      JM.r_tuples_per_page = tuples_per_page_of catalog build;
      JM.s_tuples_per_page = tuples_per_page_of catalog probe;
      JM.cost = { S.Cost.table2 with S.Cost.fudge = cfg.fudge };
    }
  in
  let m = max cfg.mem_pages (JM.min_memory workload) in
  (* Hybrid first: on cost ties (e.g. everything in memory, where hybrid
     and simple coincide) the paper's preferred algorithm wins. *)
  let price ops = (ops, JM.seconds workload.JM.cost ops) in
  let candidates =
    if cfg.allow_hash then
      [
        (E.Joiner.Hybrid_hash_join, price (JM.hybrid_hash_ops workload ~m));
        (E.Joiner.Grace_hash_join, price (JM.grace_hash_ops workload ~m));
        (E.Joiner.Simple_hash_join, price (JM.simple_hash_ops workload ~m));
        (E.Joiner.Sort_merge_join, price (JM.sort_merge_ops workload ~m));
      ]
    else
      [ (E.Joiner.Sort_merge_join, price (JM.sort_merge_ops workload ~m)) ]
  in
  let algorithm, (est_ops, est_seconds) =
    (* Strictly-better-by-margin keeps hybrid on floating-point ties
       (hybrid and simple compute identical costs in different summation
       orders when everything fits in memory). *)
    match candidates with
    | [] -> invalid_arg "Optimizer: empty join-candidate list"
    | first :: rest ->
      List.fold_left
        (fun ((_, (_, bc)) as best) ((_, (_, c)) as cand) ->
          if c < bc *. (1.0 -. 1e-9) then cand else best)
        first rest
  in
  {
    algorithm;
    swapped;
    est_build_pages = build_pages;
    est_probe_pages = probe_pages;
    est_mem_pages = m;
    est_workload = workload;
    est_ops;
    est_seconds;
  }

(* Whether an index probe for [pred] returns exactly the rows a filter
   would keep: an equality on the key column with a literal the key
   encoding represents (a NUL-padded string must not end in NUL). *)
let probes_key schema (pred : Algebra.predicate) =
  let ki = S.Schema.key_index schema in
  let col = S.Schema.column_at schema ki in
  pred.Algebra.op = Algebra.Eq
  && String.equal pred.Algebra.column col.S.Schema.name
  &&
  match (col.S.Schema.ty, pred.Algebra.value) with
  | S.Schema.Int, S.Tuple.VInt v ->
    let lo, hi = S.Tuple.int_key_range schema in
    lo <= v && v <= hi
  | S.Schema.Fixed_string, S.Tuple.VStr s ->
    let n = String.length s in
    n <= col.S.Schema.width && (n = 0 || s.[n - 1] <> '\000')
  | S.Schema.Int, S.Tuple.VStr _ | S.Schema.Fixed_string, S.Tuple.VInt _ -> false

(* A chain of selections directly over the scan of an indexed table, with
   an equality on its key anywhere in the chain, becomes one index probe
   under the chain's other predicates (in their original order). *)
let index_path catalog expr =
  let rec chain preds = function
    | Algebra.Select { input; pred } -> chain (pred :: preds) input
    | Algebra.Scan table -> Some (table, preds)
    | _ -> None
  in
  match chain [] expr with
  | Some (table, preds) when Catalog.mem catalog table -> (
    match Catalog.index_kind catalog table with
    | None -> None
    | Some kind -> (
      let schema = S.Relation.schema (Catalog.find catalog table) in
      (* [preds] lists the innermost predicate first. *)
      let rec split before = function
        | [] -> None
        | p :: rest when probes_key schema p -> Some (p, List.rev_append before rest)
        | p :: rest -> split (p :: before) rest
      in
      match split [] preds with
      | None -> None
      | Some (probe, rest) ->
        let lookup =
          P_index_lookup
            { table; column = probe.Algebra.column; value = probe.Algebra.value; kind }
        in
        Some (List.fold_left (fun input pred -> P_filter { input; pred }) lookup rest)))
  | Some _ | None -> None

(* The grouping of [expr]'s node: as many groups as [groups_of] is
   estimated to return, in pages of [expr]'s output rows. *)
let grouping catalog cfg expr ~groups_of =
  let est_groups = int_of_float (Float.ceil (Selectivity.estimate catalog groups_of)) in
  let tuples_per_page = tuples_per_page_of catalog expr in
  let est_partitions, _ =
    E.Hybrid_hash.partitions ~mem_pages:cfg.mem_pages ~fudge:cfg.fudge
      ~r_pages:((est_groups + tuples_per_page - 1) / tuples_per_page)
  in
  { est_groups; est_partitions }

let plan catalog cfg expr =
  let expr = push_down catalog expr in
  let rec go = function
    | Algebra.Scan name -> P_scan name
    | Algebra.Select { input; pred } as sel -> (
      match index_path catalog sel with
      | Some p -> p
      | None -> P_filter { input = go input; pred })
    | Algebra.Project { input; columns; distinct } as proj ->
      let distinct = if distinct then Some (grouping catalog cfg proj ~groups_of:proj) else None in
      P_project { input = go input; columns; distinct }
    | Algebra.Join { left; right; left_key; right_key } ->
      let choice = choose_join catalog cfg left right in
      P_join { left = go left; right = go right; left_key; right_key; choice }
    | Algebra.Aggregate { input; group_by; aggs } as agg ->
      P_aggregate { input = go input; group_by; aggs; grouping = grouping catalog cfg agg ~groups_of:agg }
    | Algebra.Order_by { input; column; descending } ->
      P_order_by { input = go input; column; descending }
    | Algebra.Set_op { op; left; right } as set ->
      let grouping = grouping catalog cfg set ~groups_of:(Algebra.set_op Algebra.Union left right) in
      P_set_op { op; left = go left; right = go right; grouping }
  in
  go expr

let rec estimated_cost = function
  | P_scan _ | P_index_lookup _ -> 0.0
  | P_filter { input; _ } | P_project { input; _ } | P_aggregate { input; _ }
  | P_order_by { input; _ } ->
    estimated_cost input
  | P_join { left; right; choice; _ } ->
    choice.est_seconds +. estimated_cost left +. estimated_cost right
  | P_set_op { left; right; _ } ->
    estimated_cost left +. estimated_cost right

let rec estimated_ops = function
  | P_scan _ | P_index_lookup _ -> JM.zero_ops
  | P_filter { input; _ } | P_project { input; _ } | P_aggregate { input; _ }
  | P_order_by { input; _ } ->
    estimated_ops input
  | P_join { left; right; choice; _ } ->
    JM.add_ops choice.est_ops
      (JM.add_ops (estimated_ops left) (estimated_ops right))
  | P_set_op { left; right; _ } ->
    JM.add_ops (estimated_ops left) (estimated_ops right)

let rec join_choices = function
  | P_scan _ | P_index_lookup _ -> []
  | P_filter { input; _ } | P_project { input; _ } | P_aggregate { input; _ }
  | P_order_by { input; _ } ->
    join_choices input
  | P_join { left; right; choice; _ } ->
    choice :: (join_choices left @ join_choices right)
  | P_set_op { left; right; _ } -> join_choices left @ join_choices right

let grouping_string { est_groups; est_partitions } =
  Printf.sprintf " groups=%d %s" est_groups
    (if est_partitions = 0 then "one-pass" else Printf.sprintf "two-pass B=%d" est_partitions)

let explain plan =
  let buf = Buffer.create 256 in
  let rec go indent p =
    let pad = String.make indent ' ' in
    match p with
    | P_scan name -> Buffer.add_string buf (Printf.sprintf "%sscan %s\n" pad name)
    | P_index_lookup { table; column; value; kind } ->
      Buffer.add_string buf
        (Printf.sprintf "%sindex-lookup %s.%s = %s (%s)\n" pad table column
           (Algebra.value_string value) (Catalog.kind_name kind))
    | P_filter { input; pred } ->
      Buffer.add_string buf
        (Printf.sprintf "%sfilter %s\n" pad pred.Algebra.column);
      go (indent + 2) input
    | P_project { input; columns; distinct } ->
      Buffer.add_string buf
        (Printf.sprintf "%sproject%s [%s]%s\n" pad
           (if distinct = None then "" else " distinct")
           (String.concat ", " columns)
           (match distinct with None -> "" | Some g -> grouping_string g));
      go (indent + 2) input
    | P_join { left; right; left_key; right_key; choice } ->
      Buffer.add_string buf
        (Printf.sprintf
           "%sjoin (%s) %s=%s build=%s pages=%d/%d est=%.3fs\n" pad
           (E.Joiner.name choice.algorithm)
           left_key right_key
           (if choice.swapped then "right" else "left")
           choice.est_build_pages choice.est_probe_pages choice.est_seconds);
      go (indent + 2) left;
      go (indent + 2) right
    | P_aggregate { input; group_by; aggs; grouping } ->
      Buffer.add_string buf
        (Printf.sprintf "%saggregate by %s (%d aggs)%s\n" pad group_by
           (* perf_lint: explain printer; one length per aggregate node *)
           (List.length aggs) (grouping_string grouping));
      go (indent + 2) input
    | P_order_by { input; column; descending } ->
      Buffer.add_string buf
        (Printf.sprintf "%sorder by %s%s\n" pad column
           (if descending then " desc" else ""));
      go (indent + 2) input
    | P_set_op { op; left; right; grouping } ->
      let name =
        match op with
        | Algebra.Union -> "union"
        | Algebra.Intersect -> "intersect"
        | Algebra.Except -> "except"
      in
      Buffer.add_string buf (Printf.sprintf "%s%s%s\n" pad name (grouping_string grouping));
      go (indent + 2) left;
      go (indent + 2) right
  in
  go 0 plan;
  Buffer.contents buf
