module S = Mmdb_storage
module P = Mmdb_planner

type index_kind = P.Catalog.index_kind = Avl_index | Btree_index

type t = {
  env : S.Env.t;
  disk : S.Disk.t;
  mem_pages : int;
  cat : P.Catalog.t;
  planner_cfg : P.Optimizer.config;
}

let create ?(page_size = 4096) ?(mem_pages = 256) () =
  let env = S.Env.create () in
  {
    env;
    disk = S.Disk.create ~env ~page_size;
    mem_pages;
    cat = P.Catalog.create ();
    planner_cfg =
      {
        P.Optimizer.mem_pages;
        P.Optimizer.fudge = S.Cost.table2.S.Cost.fudge;
        P.Optimizer.allow_hash = true;
      };
  }

let env t = t.env
let mem_pages t = t.mem_pages
let catalog t = t.cat

let find_table t name = P.Catalog.find t.cat name

let create_table t ~name ~schema =
  if P.Catalog.mem t.cat name then
    invalid_arg ("Db.create_table: table exists: " ^ name);
  P.Catalog.register t.cat (S.Relation.create ~disk:t.disk ~name ~schema)

let table_names t = P.Catalog.names t.cat

let encode_rows rel rows = List.map (S.Tuple.encode (S.Relation.schema rel)) rows

let insert t ~table values =
  P.Catalog.insert t.cat table (encode_rows (find_table t table) [ values ])

(* Append, seal and re-register: the statistics fold in only the new
   rows. *)
let insert_sealed t table tuples =
  P.Catalog.insert t.cat table tuples;
  let rel = find_table t table in
  S.Relation.seal rel;
  P.Catalog.register t.cat rel

let insert_many t ~table rows =
  insert_sealed t table (encode_rows (find_table t table) rows)

let create_index t ~table kind = P.Catalog.create_index t.cat table kind

let lookup t ~table ~key =
  let schema = S.Relation.schema (find_table t table) in
  Option.map (S.Tuple.decode schema)
    (P.Catalog.lookup t.cat table (S.Tuple.encode_key schema key))

let range t ~table ~lo ~hi =
  let rel = find_table t table in
  let schema = S.Relation.schema rel in
  let lob = S.Tuple.encode_key schema lo and hib = S.Tuple.encode_key schema hi in
  let acc = ref [] in
  let collect tuple = acc := S.Tuple.decode schema tuple :: !acc in
  (* The B+-tree's leaf chain first: a range reads neighbouring keys. *)
  let indexes = P.Catalog.indexes t.cat table in
  let btree = List.find_map (function P.Catalog.Btree ix -> Some ix | P.Catalog.Avl _ -> None) indexes in
  let avl = List.find_map (function P.Catalog.Avl ix -> Some ix | P.Catalog.Btree _ -> None) indexes in
  (match (btree, avl) with
  | Some ix, _ -> Mmdb_index.Btree.range_scan ix ~lo:lob ~hi:hib collect
  | None, Some ix -> Mmdb_index.Avl.range_scan ix ~lo:lob ~hi:hib collect
  | None, None ->
    let matches = ref [] in
    S.Relation.iter_tuples_nocharge rel (fun tuple ->
        S.Env.charge_comps t.env 2;
        if
          S.Tuple.compare_key_to schema tuple lob >= 0
          && S.Tuple.compare_key_to schema tuple hib <= 0
        then matches := tuple :: !matches);
    List.iter collect
      (List.sort (S.Tuple.compare_keys schema) (List.rev !matches)));
  List.rev !acc

let check t expr = P.Plan_check.check t.cat expr

let planned t expr =
  match P.Plan_check.check_schema t.cat expr with
  | Ok _ -> P.Optimizer.plan t.cat t.planner_cfg expr
  | Error diags ->
    invalid_arg
      (Format.asprintf "Db.query: invalid plan:@ %a" Mmdb_util.Diag.pp_list
         diags)

let query t expr = P.Executor.run t.cat t.planner_cfg (planned t expr)
let query_rows t expr = P.Executor.run_rows t.cat t.planner_cfg (planned t expr)

let audit t =
  List.concat_map
    (fun name ->
      List.map
        (function
          (* perf_lint: audit labels; one concat per index *)
          | P.Catalog.Avl ix -> (name ^ ".avl", Mmdb_verify.Audit.avl ix)
          (* perf_lint: audit labels; one concat per index *)
          | P.Catalog.Btree ix ->
            (name ^ ".btree", Mmdb_verify.Audit.btree ix))
        (P.Catalog.indexes t.cat name))
    (List.sort compare (table_names t))

let explain t expr =
  P.Optimizer.explain (P.Optimizer.plan t.cat t.planner_cfg expr)

(* exn_flow: Parse_error is caught at Sql.parse_statement's own tail
   (lexical-model false positive; parse_exn raises Invalid_argument). *)
let sql t text = query_rows t (P.Sql.parse_exn text)
let sql_explain t text = explain t (P.Sql.parse_exn text)

type exec_result = Rows of S.Tuple.value list list | Affected of int

(* Rebuild a table's relation with [keep]-filtered, [transform]-mapped
   tuples.  Registering the new relation rebuilds the indexes and the
   statistics; if a rebuilt index finds a duplicate key, the table is
   left as it was. *)
let rebuild_table t name ~keep ~transform =
  let rel = find_table t name in
  let affected = ref 0 in
  let fresh = S.Relation.create ~disk:t.disk ~name ~schema:(S.Relation.schema rel) in
  S.Relation.iter_tuples_nocharge rel (fun tuple ->
      if keep tuple then S.Relation.append_nocharge fresh tuple
      else begin
        incr affected;
        match transform tuple with
        | Some tuple' -> S.Relation.append_nocharge fresh tuple'
        | None -> ()
      end);
  S.Relation.seal fresh;
  let registered = ref false in
  Fun.protect
    ~finally:(fun () -> S.Relation.free_pages (if !registered then rel else fresh))
    (fun () ->
      P.Catalog.register t.cat fresh;
      registered := true);
  !affected

(* A statement's WHERE, resolved once against the table's schema. *)
let matches_all schema preds =
  let tests = List.map (P.Algebra.eval_predicate schema) preds in
  fun tuple -> List.for_all (fun test -> test tuple) tests

let execute t text =
  match P.Sql.parse_statement_exn text with
  | P.Sql.Query expr -> Rows (query_rows t expr)
  | P.Sql.Insert { table; rows } ->
    insert_sealed t table (encode_rows (find_table t table) rows);
    Affected (List.length rows)
  | P.Sql.Delete { table; preds } ->
    let matches = matches_all (S.Relation.schema (find_table t table)) preds in
    Affected
      (rebuild_table t table
         ~keep:(fun tuple -> not (matches tuple))
         ~transform:(fun _ -> None))
  | P.Sql.Update { table; sets; preds } ->
    let schema = S.Relation.schema (find_table t table) in
    let set_indices =
      List.map (fun (col, v) -> (S.Schema.column_index schema col, v)) sets
    in
    let matches = matches_all schema preds in
    Affected
      (rebuild_table t table
         ~keep:(fun tuple -> not (matches tuple))
         ~transform:(fun tuple ->
           let values = Array.of_list (S.Tuple.decode schema tuple) in
           List.iter (fun (i, v) -> values.(i) <- v) set_indices;
           Some (S.Tuple.encode schema (Array.to_list values))))
  | P.Sql.Create_table { table; schema } ->
    create_table t ~name:table ~schema;
    Affected 0
  | P.Sql.Drop_table table ->
    S.Relation.free_pages (find_table t table);
    P.Catalog.remove t.cat table;
    Affected 0

let stats t =
  Format.asprintf "simulated %.3fs; %a" (S.Env.elapsed t.env) S.Counters.pp
    t.env.S.Env.counters

(* ------------------------------------------------------------------ *)
(* Persistence                                                         *)
(* ------------------------------------------------------------------ *)

let magic = "MMDB0002"

let put_u16 buf v =
  if v < 0 || v > 0xFFFF then invalid_arg "Db.save: u16 overflow";
  Buffer.add_uint16_be buf v

let put_u32 buf v =
  if v < 0 || v > 0xFFFFFFFF then invalid_arg "Db.save: u32 overflow";
  Buffer.add_int32_be buf (Int32.of_int v)

let put_string buf s =
  put_u16 buf (String.length s);
  Buffer.add_string buf s

let save t path =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf magic;
  put_u32 buf (S.Disk.page_size t.disk);
  put_u32 buf t.mem_pages;
  let names = List.sort compare (table_names t) in
  put_u32 buf (List.length names);
  List.iter
    (fun name ->
      let rel = find_table t name in
      S.Relation.seal rel;
      let schema = S.Relation.schema rel in
      put_string buf name;
      let cols = S.Schema.columns schema in
      (* perf_lint: save path; one length per table, bounded by schema *)
      put_u16 buf (List.length cols);
      List.iter
        (fun (c : S.Schema.column) ->
          put_string buf c.S.Schema.name;
          Buffer.add_uint8 buf
            (match c.S.Schema.ty with S.Schema.Int -> 0 | S.Schema.Fixed_string -> 1);
          put_u16 buf c.S.Schema.width)
        cols;
      put_u16 buf (S.Schema.key_index schema);
      let kinds = List.map P.Catalog.kind_of_index (P.Catalog.indexes t.cat name) in
      let has kind = if List.mem kind kinds then 1 else 0 in
      Buffer.add_uint8 buf (has Avl_index);
      Buffer.add_uint8 buf (has Btree_index);
      put_u32 buf (S.Relation.ntuples rel);
      S.Relation.iter_tuples_nocharge rel (fun tuple ->
          Buffer.add_bytes buf tuple))
    names;
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      Buffer.output_buffer oc buf;
      close_out oc)

let load path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let data = really_input_string ic len in
  close_in ic;
  let pos = ref 0 in
  let get n read =
    if !pos + n > len then invalid_arg "Db.load: truncated file";
    let v = read data !pos in
    pos := !pos + n;
    v
  in
  let get_u8 () = get 1 String.get_uint8 in
  let get_u16 () = get 2 String.get_uint16_be in
  let get_u32 () =
    get 4 (fun s i -> Int32.to_int (String.get_int32_be s i) land 0xFFFFFFFF)
  in
  let get_string n = get n (fun s i -> String.sub s i n) in
  if get_string (String.length magic) <> magic then
    invalid_arg "Db.load: bad magic (not an mmdb file or wrong version)";
  let page_size = get_u32 () in
  let mem_pages = get_u32 () in
  let db = create ~page_size ~mem_pages () in
  let ntables = get_u32 () in
  for _ = 1 to ntables do
    let name = get_string (get_u16 ()) in
    let ncols = get_u16 () in
    let cols =
      List.init ncols (fun _ ->
          let cname = get_string (get_u16 ()) in
          let ty =
            match get_u8 () with
            | 0 -> S.Schema.Int
            | 1 -> S.Schema.Fixed_string
            | b -> invalid_arg (Printf.sprintf "Db.load: bad column type %d" b)
          in
          let width = get_u16 () in
          S.Schema.column ~width cname ty)
    in
    let key_index = get_u16 () in
    if key_index >= ncols then invalid_arg "Db.load: bad key index";
    let key =
      (* perf_lint: load path; one nth per table, bounded by schema *)
      (List.nth (List.map (fun (c : S.Schema.column) -> c.S.Schema.name) cols)
         key_index)
    in
    let schema = S.Schema.create ~key cols in
    let has_avl = get_u8 () = 1 in
    let has_btree = get_u8 () = 1 in
    let ntuples = get_u32 () in
    let width = S.Schema.tuple_width schema in
    create_table db ~name ~schema;
    let tuples = ref [] in
    for _ = 1 to ntuples do
      tuples := Bytes.of_string (get_string width) :: !tuples
    done;
    insert_sealed db name (List.rev !tuples);
    if has_avl then create_index db ~table:name Avl_index;
    if has_btree then create_index db ~table:name Btree_index
  done;
  if !pos <> len then invalid_arg "Db.load: trailing bytes";
  db
