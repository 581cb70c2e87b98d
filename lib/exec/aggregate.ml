module S = Mmdb_storage

type spec =
  | Count
  | Sum of string
  | Min of string
  | Max of string
  | Avg of string

type acc = {
  mutable n : int;
  sums : int array; (* one slot per spec needing a column *)
  mins : int array;
  maxs : int array;
}

let spec_column schema = function
  | Count -> None
  | Sum c | Min c | Max c | Avg c -> Some (S.Schema.column_index schema c)

let spec_name = function
  | Count -> "count"
  | Sum c -> "sum_" ^ c
  | Min c -> "min_" ^ c
  | Max c -> "max_" ^ c
  | Avg c -> "avg_" ^ c

let result_schema schema specs =
  if specs = [] then invalid_arg "Aggregate: no aggregate specs";
  let key_col = S.Schema.column_at schema (S.Schema.key_index schema) in
  let group_col = { key_col with S.Schema.name = "group" } in
  let agg_cols =
    List.map (fun sp -> S.Schema.column (spec_name sp) S.Schema.Int) specs
  in
  S.Schema.create ~key:"group" (group_col :: agg_cols)

let fresh_acc nspecs =
  {
    n = 0;
    sums = Array.make nspecs 0;
    mins = Array.make nspecs max_int;
    maxs = Array.make nspecs min_int;
  }

let update_acc env schema specs cols acc tuple =
  acc.n <- acc.n + 1;
  List.iteri
    (fun i sp ->
      match (sp, cols.(i)) with
      | Count, _ -> ()
      | (Sum _ | Avg _), Some c ->
        acc.sums.(i) <- acc.sums.(i) + S.Tuple.get_int schema tuple c
      | Min _, Some c ->
        S.Env.charge_comp env;
        acc.mins.(i) <- min acc.mins.(i) (S.Tuple.get_int schema tuple c)
      | Max _, Some c ->
        S.Env.charge_comp env;
        acc.maxs.(i) <- max acc.maxs.(i) (S.Tuple.get_int schema tuple c)
      | (Sum _ | Avg _ | Min _ | Max _), None -> assert false)
    specs

let acc_values specs acc =
  List.mapi
    (fun i sp ->
      match sp with
      | Count -> acc.n
      | Sum _ -> acc.sums.(i)
      | Min _ -> acc.mins.(i)
      | Max _ -> acc.maxs.(i)
      | Avg _ -> if acc.n = 0 then 0 else acc.sums.(i) / acc.n)
    specs

(* Aggregate a tuple stream into [groups]; charges one hash per tuple and
   one comp per group-table lookup. *)
let feed env schema specs cols hash groups tuple =
  ignore (Hash_fn.hash hash tuple);
  let k = Bytes.unsafe_to_string (S.Tuple.key_bytes schema tuple) in
  S.Env.charge_comp env;
  let acc =
    match Hashtbl.find_opt groups k with
    | Some a -> a
    | None ->
      let a = fresh_acc (List.length specs) in
      S.Env.charge_move env;
      Hashtbl.replace groups k a;
      a
  in
  update_acc env schema specs cols acc tuple

let emit_groups env out_schema specs groups out =
  ignore env;
  (* Deterministic output order: sorted by group key bytes. *)
  let items = Hashtbl.fold (fun k a l -> (k, a) :: l) groups [] in
  let items = List.sort (fun (a, _) (b, _) -> String.compare a b) items in
  List.iter
    (fun (k, acc) ->
      let vals = acc_values specs acc in
      let width = S.Schema.tuple_width out_schema in
      let tup = Bytes.make width '\000' in
      Bytes.blit_string k 0 tup 0 (String.length k);
      List.iteri
        (fun i v -> S.Tuple.set_int out_schema tup (i + 1) v)
        vals;
      S.Relation.append out tup)
    items

let sort_based ~mem_pages rel specs =
  let schema = S.Relation.schema rel in
  let env = S.Relation.env rel in
  let out_schema = result_schema schema specs in
  let out =
    S.Relation.create ~disk:(S.Relation.disk rel)
      ~name:(S.Relation.name rel ^ ".agg") ~schema:out_schema
  in
  let cols = Array.of_list (List.map (spec_column schema) specs) in
  let sorted = External_sort.sort ~mem_pages rel in
  (* One pass over the sorted stream: adjacent equal keys form a group. *)
  let current_key = ref None in
  let acc = ref (fresh_acc (List.length specs)) in
  let emit_current () =
    match !current_key with
    | None -> ()
    | Some key ->
      let vals = acc_values specs !acc in
      let width = S.Schema.tuple_width out_schema in
      let tup = Bytes.make width '\000' in
      Bytes.blit key 0 tup 0 (Bytes.length key);
      List.iteri (fun i v -> S.Tuple.set_int out_schema tup (i + 1) v) vals;
      S.Relation.append out tup
  in
  S.Relation.iter_tuples ~mode:S.Disk.Seq sorted (fun tuple ->
      let key = S.Tuple.key_bytes schema tuple in
      let same =
        match !current_key with
        | Some k ->
          S.Env.charge_comp env;
          Bytes.equal k key
        | None -> false
      in
      if not same then begin
        emit_current ();
        current_key := Some key;
        acc := fresh_acc (List.length specs)
      end;
      update_acc env schema specs cols !acc tuple);
  emit_current ();
  S.Relation.free_pages sorted;
  S.Relation.seal out;
  out

let hybrid ~mem_pages ~fudge rel specs =
  if mem_pages <= 1 then invalid_arg "Aggregate.hybrid: mem_pages <= 1";
  let schema = S.Relation.schema rel in
  let env = S.Relation.env rel in
  let out_schema = result_schema schema specs in
  let out =
    S.Relation.create ~disk:(S.Relation.disk rel)
      ~name:(S.Relation.name rel ^ ".agg") ~schema:out_schema
  in
  let hash = Hash_fn.create ~env ~schema ~seed:0xa66 in
  (* Groups needed ~= distinct keys; bound by input pages.  Partition so
     each bucket's group table fits: B as in the hybrid join, treating the
     input as R. *)
  let b =
    Hybrid_hash.partitions ~mem_pages ~fudge
      ~r_pages:(S.Relation.npages rel)
  in
  if b = 0 then begin
    (* Everything fits: the one-pass hash aggregation. *)
    let cols = Array.of_list (List.map (spec_column schema) specs) in
    let groups = Hashtbl.create 1024 in
    S.Relation.iter_tuples_nocharge rel
      (feed env schema specs cols hash groups);
    emit_groups env out_schema specs groups out
  end
  else begin
    let q = Hybrid_hash.q_fraction ~mem_pages ~fudge ~r_pages:(S.Relation.npages rel) in
    let write_mode = if b <= 1 then S.Disk.Seq else S.Disk.Rand in
    let mem_part, buckets =
      Partition.split_fraction ~scan:Partition.Free ~q ~nbuckets:b ~hash
        ~write_mode rel
    in
    (* In-memory slice aggregates immediately. *)
    let cols = Array.of_list (List.map (spec_column schema) specs) in
    let groups = Hashtbl.create 1024 in
    List.iter (feed env schema specs cols hash groups) mem_part;
    emit_groups env out_schema specs groups out;
    (* Disk partitions: aggregate each on re-read. *)
    Array.iter
      (fun bucket ->
        if S.Relation.ntuples bucket > 0 then begin
          let groups = Hashtbl.create 256 in
          Partition.iter_bucket bucket
            (feed env schema specs cols hash groups);
          emit_groups env out_schema specs groups out
        end)
      buckets;
    Partition.free buckets
  end;
  S.Relation.seal out;
  out
