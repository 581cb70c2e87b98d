module S = Mmdb_storage

type spec =
  | Count
  | Sum of string
  | Min of string
  | Max of string
  | Avg of string

let spec_name = function
  | Count -> "count"
  | Sum c -> "sum_" ^ c
  | Min c -> "min_" ^ c
  | Max c -> "max_" ^ c
  | Avg c -> "avg_" ^ c

let result_schema schema specs =
  let key_col = S.Schema.column_at schema (S.Schema.key_index schema) in
  let group_col = { key_col with S.Schema.name = "group" } in
  let agg_cols =
    List.map (fun sp -> S.Schema.column (spec_name sp) S.Schema.Int) specs
  in
  S.Schema.create ~key:"group" (group_col :: agg_cols)

(* One column spanning the tuple, keyed on itself: grouping under it
   hashes and compares whole tuples, so duplicate elimination and the set
   operations use the group table unchanged. *)
let whole schema =
  let width = S.Schema.tuple_width schema in
  S.Schema.create ~key:"tuple" [ S.Schema.column ~width "tuple" S.Schema.Fixed_string ]

type source =
  | Relation of S.Relation.t
  | Stream of { disk : S.Disk.t; schema : S.Schema.t; push : (bytes -> unit) -> unit }

let schema_of = function
  | Relation rel -> S.Relation.schema rel
  | Stream { schema; _ } -> schema

(* One aggregation: its input schema, its specs, each spec's input column
   (-1 for [Count]) and the output relation.  A group's running aggregate
   is [1 + nspecs] ints of an [int array] from some base: the tuple count
   (a set operation's side mask instead), then per spec its sum (Sum,
   Avg), minimum or maximum; [init] is the aggregate of no tuples. *)
type agg = {
  env : S.Env.t;
  schema : S.Schema.t;
  specs : spec array;
  cols : int array;
  init : int array;
  out : S.Relation.t;
}

let start source specs =
  let disk, name =
    match source with
    | Relation rel -> (S.Relation.disk rel, S.Relation.name rel)
    | Stream { disk; _ } -> (disk, "#stream")
  in
  let schema = schema_of source in
  let out =
    S.Relation.create ~disk ~name:(name ^ ".agg") ~schema:(result_schema schema specs)
  in
  let specs = Array.of_list specs in
  let col = function
    | Count -> -1
    | Sum c | Min c | Max c | Avg c -> S.Schema.column_index schema c
  in
  let init = function Min _ -> max_int | Max _ -> min_int | _ -> 0 in
  { env = S.Disk.env disk; schema; specs; cols = Array.map col specs;
    init = Array.append [| 0 |] (Array.map init specs); out }

let stride a = Array.length a.init
let init_acc a accs base = Array.blit a.init 0 accs base (stride a)

let update_acc a accs base tuple =
  accs.(base) <- accs.(base) + 1;
  for i = 0 to Array.length a.specs - 1 do
    let slot = base + 1 + i in
    match a.specs.(i) with
    | Count -> ()
    | Sum _ | Avg _ ->
      accs.(slot) <- accs.(slot) + S.Tuple.get_int a.schema tuple a.cols.(i)
    | Min _ ->
      S.Env.charge_comp a.env;
      accs.(slot) <- Int.min accs.(slot) (S.Tuple.get_int a.schema tuple a.cols.(i))
    | Max _ ->
      S.Env.charge_comp a.env;
      accs.(slot) <- Int.max accs.(slot) (S.Tuple.get_int a.schema tuple a.cols.(i))
  done

(* Fill the aggregate columns of [row], whose group column is set, and
   append it to the output. *)
let emit_row a row accs base =
  let out_schema = S.Relation.schema a.out in
  let n = accs.(base) in
  Array.iteri
    (fun i sp ->
      let v = accs.(base + 1 + i) in
      S.Tuple.set_int out_schema row (i + 1)
        (match sp with
        | Count -> n
        | Avg _ -> if n = 0 then 0 else v / n
        | Sum _ | Min _ | Max _ -> v))
    a.specs;
  S.Relation.append a.out row

(* The group table holds one output row per group, its group column set
   when the group is created; [accs] is indexed by the row's position. *)
type groups = { table : Hash_table.t; mutable accs : int array }

(* A fresh output row holding [tuple]'s key as its group column. *)
let group_row a tuple =
  let out_schema = S.Relation.schema a.out in
  let row = Bytes.make (S.Schema.tuple_width out_schema) '\000' in
  Bytes.blit tuple (S.Schema.key_offset a.schema) row 0
    (S.Schema.key_width out_schema);
  row

let new_group a g tuple =
  Hash_table.insert g.table (group_row a tuple);
  let i = Hash_table.length g.table - 1 in
  if (i + 1) * stride a > Array.length g.accs then
    g.accs <- Array.append g.accs (Array.make (Array.length g.accs + stride a) 0);
  init_acc a g.accs (i * stride a);
  i

(* The base of [tuple]'s group in [g.accs]: one hash and one comparison
   to find the group, one move when it is new. *)
let group_base a hash g tuple =
  Hash_fn.charge hash;
  S.Env.charge_comp a.env;
  stride a
  * (match Hash_table.find g.table ~probe_schema:a.schema tuple with
    | -1 -> new_group a g tuple
    | i -> i)

(* Aggregate one tuple into [g]. *)
let feed a hash g tuple = update_acc a g.accs (group_base a hash g tuple) tuple

(* Record in its group's mask that [tuple] came from the input [side]. *)
let mark side a hash g tuple =
  let base = group_base a hash g tuple in
  g.accs.(base) <- g.accs.(base) lor side

(* Emit [g]'s groups whose first slot [keep] accepts, sorted by group key
   bytes (a deterministic order), then empty it for the next partition. *)
let emit_groups a keep g =
  let out_schema = S.Relation.schema a.out in
  let rows = Array.init (Hash_table.length g.table) (Hash_table.get g.table) in
  let order = Array.init (Array.length rows) Fun.id in
  Array.sort (fun i j -> S.Tuple.compare_keys out_schema rows.(i) rows.(j)) order;
  Array.iter
    (fun i -> if keep g.accs.(i * stride a) then emit_row a rows.(i) g.accs (i * stride a))
    order;
  Hash_table.clear g.table

let sort_based ~mem_pages rel specs =
  let a = start (Relation rel) specs in
  let sorted = External_sort.sort ~mem_pages rel in
  let key_width = S.Schema.key_width a.schema in
  (* One pass over the sorted stream: adjacent equal keys form a group,
     whose output row is [row]. *)
  let acc = Array.make (stride a) 0 in
  let row = ref None in
  let emit_current () = Option.iter (fun r -> emit_row a r acc 0) !row in
  S.Relation.iter_tuples ~mode:S.Disk.Seq sorted (fun tuple ->
      let same =
        match !row with
        | Some r ->
          S.Env.charge_comp a.env;
          S.Tuple.equal_range r 0 tuple (S.Schema.key_offset a.schema) key_width
        | None -> false
      in
      if not same then begin
        emit_current ();
        row := Some (group_row a tuple);
        init_acc a acc 0
      end;
      update_acc a acc 0 tuple);
  emit_current ();
  S.Relation.free_pages sorted;
  S.Relation.seal a.out;
  a.out

(* The pages [groups] output rows fill: the group table, not the input,
   is what must fit in |M|, so B and q treat it as the hybrid join's R. *)
let group_pages ~groups ~tuples_per_page = (groups + tuples_per_page - 1) / tuples_per_page

let partitions ~mem_pages ~fudge ~groups ~tuples_per_page =
  Hybrid_hash.partitions ~mem_pages ~fudge ~r_pages:(group_pages ~groups ~tuples_per_page)

(* The hash grouping kernel: feed every tuple of each input to the group
   table through its feeder, then emit the groups [keep] accepts. *)
let group ~mem_pages ~fudge ~groups a keep inputs =
  if mem_pages <= 1 then invalid_arg "Aggregate: mem_pages <= 1";
  let hash = Hash_fn.create ~env:a.env ~schema:a.schema ~seed:0xa66 in
  let tuples_per_page = S.Relation.tuples_per_page a.out in
  let g =
    { table = Hash_table.create ~env:a.env ~schema:(S.Relation.schema a.out) ~tuples_per_page;
      accs = [||] }
  in
  let r_pages = group_pages ~groups ~tuples_per_page in
  let b = Hybrid_hash.partitions ~mem_pages ~fudge ~r_pages in
  if b = 0 then begin
    (* The groups fit: the one-pass hash aggregation, fed as the input
       arrives. *)
    List.iter
      (fun (source, f) ->
        match source with
        | Relation rel -> S.Relation.iter_tuples_nocharge rel (f a hash g)
        | Stream { push; _ } -> push (f a hash g))
      inputs;
    emit_groups a keep g
  end
  else begin
    (* Split each input by group-key hash so that a fraction q of the
       groups stays resident and each disk partition's groups fit; equal
       keys of every input meet in the same partition. *)
    let q = Hybrid_hash.q_fraction ~mem_pages ~fudge ~r_pages in
    let write_mode = if b <= 1 then S.Disk.Seq else S.Disk.Rand in
    let split (source, f) =
      let rel =
        match source with
        | Relation rel -> rel
        | Stream { disk; schema; push } ->
          let rel = S.Relation.create ~disk ~name:"#stream" ~schema in
          push (S.Relation.append_nocharge rel);
          S.Relation.seal rel;
          rel
      in
      let mem_part, buckets =
        Partition.split_fraction ~scan:Partition.Free ~q ~nbuckets:b ~hash
          ~write_mode rel
      in
      (match source with Stream _ -> S.Relation.free_pages rel | Relation _ -> ());
      (f a hash g, mem_part, buckets)
    in
    let parts = List.map split inputs in
    (* In-memory slice aggregates immediately. *)
    List.iter (fun (f, mem_part, _) -> List.iter f mem_part) parts;
    emit_groups a keep g;
    (* Disk partitions: aggregate each on re-read. *)
    for i = 0 to b - 1 do
      let spilled = List.filter (fun (_, _, bk) -> S.Relation.ntuples bk.(i) > 0) parts in
      if spilled <> [] then begin
        List.iter (fun (f, _, bk) -> Partition.iter_bucket bk.(i) f) spilled;
        emit_groups a keep g
      end
    done;
    List.iter (fun (_, _, buckets) -> Partition.free buckets) parts
  end;
  S.Relation.seal a.out;
  a.out

let hybrid ~mem_pages ~fudge ~groups source specs =
  group ~mem_pages ~fudge ~groups (start source specs) (fun _ -> true) [ (source, feed) ]

(* Group [first] and [rest] on their whole tuples, input [i] marking bit
   [1 lsl i] of its groups' masks, and emit the groups whose mask [keep]
   accepts, under [first]'s schema. *)
let dedupe ~mem_pages ~fudge ~groups keep first rest =
  let schema = schema_of first in
  let view = function
    | Relation rel -> Relation (S.Relation.with_schema rel (whole (S.Relation.schema rel)))
    | Stream s -> Stream { s with schema = whole s.schema }
  in
  let first = view first in
  let inputs = List.mapi (fun i source -> (source, mark (1 lsl i))) (first :: List.map view rest) in
  S.Relation.with_schema (group ~mem_pages ~fudge ~groups (start first []) keep inputs) schema

let distinct ~mem_pages ~fudge ~groups source =
  dedupe ~mem_pages ~fudge ~groups (fun _ -> true) source []

type set_op = Union | Intersect | Except

let set_op op ~mem_pages ~fudge ~groups l r =
  if S.Schema.tuple_width (schema_of l) <> S.Schema.tuple_width (schema_of r) then
    invalid_arg "Aggregate.set_op: tuple widths differ";
  let keep =
    match op with
    | Union -> fun _ -> true
    | Intersect -> fun mask -> mask = 3
    | Except -> fun mask -> mask = 1
  in
  dedupe ~mem_pages ~fudge ~groups keep l [ r ]
