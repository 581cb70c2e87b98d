module S = Mmdb_storage
module I = Mmdb_index

type column_stats = {
  ndistinct : int;
  min_int : int option;
  max_int : int option;
  quantiles : int array option;
}

let n_quantiles = 15

(* Equi-depth cut points of a (non-empty) unsorted value list. *)
let compute_quantiles values =
  let arr = Array.of_list values in
  Array.sort compare arr;
  let n = Array.length arr in
  if n = 0 then None
  else
    Some
      (Array.init n_quantiles (fun i ->
           let rank = (i + 1) * n / (n_quantiles + 1) in
           arr.(min (n - 1) rank)))

type table_stats = {
  ntuples : int;
  npages : int;
  columns : (string * column_stats) list;
}

type index_kind = Avl_index | Btree_index
type index = Avl of I.Avl.t | Btree of I.Btree.t

let kind_of_index = function Avl _ -> Avl_index | Btree _ -> Btree_index

let kind_name = function Avl_index -> "avl" | Btree_index -> "btree"

(* Probe preference: the AVL tree first, as Section 2 finds it cheaper
   when the structure is memory-resident. *)
let rank = function Avl _ -> 0 | Btree _ -> 1

type entry = {
  rel : S.Relation.t;
  generation : int;  (* [rel]'s generation when the entry was made *)
  mutable indexes : index list;  (* in probe-preference order *)
  mutable counted : int;  (* tuples folded into [npages] and [bounds] *)
  mutable npages : int;
  bounds : (int * int) option array;  (* per column: integer min and max *)
  mutable full : table_stats option;
      (* ndistinct and quantiles need a scan and a sort, so they are
         computed on the first [stats] read after a change *)
}

type t = (string, entry) Hashtbl.t

let create () = Hashtbl.create 16

let columns rel = Array.of_list (S.Schema.columns (S.Relation.schema rel))

(* Fold the tuples appended since the last registration into the cheap
   statistics. *)
let fold_appended e =
  let schema = S.Relation.schema e.rel in
  let cols = columns e.rel in
  S.Relation.iter_tuples_from_nocharge e.rel ~start:e.counted (fun tuple ->
      Array.iteri
        (fun i (c : S.Schema.column) ->
          match c.S.Schema.ty with
          | S.Schema.Int ->
            let v = S.Tuple.get_int schema tuple i in
            e.bounds.(i) <-
              (match e.bounds.(i) with
              | Some (lo, hi) -> Some (min lo v, max hi v)
              | None -> Some (v, v))
          | S.Schema.Fixed_string -> ())
        cols);
  let n = S.Relation.ntuples e.rel in
  if n <> e.counted then e.full <- None;
  e.counted <- n;
  e.npages <- S.Relation.npages e.rel

(* Distinct counts and histograms over the [counted] registered tuples. *)
let full_stats e =
  let schema = S.Relation.schema e.rel in
  let cols = columns e.rel in
  let distinct = Array.map (fun _ -> Hashtbl.create 64) cols in
  let values = Array.make (Array.length cols) [] in
  let seen = ref 0 in
  S.Relation.iter_tuples_nocharge e.rel (fun tuple ->
      if !seen < e.counted then begin
        incr seen;
        Array.iteri
          (fun i (c : S.Schema.column) ->
            match c.S.Schema.ty with
            | S.Schema.Int ->
              let v = S.Tuple.get_int schema tuple i in
              Hashtbl.replace distinct.(i) (S.Tuple.VInt v) ();
              values.(i) <- v :: values.(i)
            | S.Schema.Fixed_string ->
              Hashtbl.replace distinct.(i) (S.Tuple.VStr (S.Tuple.get_str schema tuple i)) ())
          cols
      end);
  {
    ntuples = e.counted;
    npages = e.npages;
    columns =
      Array.to_list
        (Array.mapi
           (fun i (c : S.Schema.column) ->
             ( c.S.Schema.name,
               {
                 ndistinct = Hashtbl.length distinct.(i);
                 min_int = Option.map fst e.bounds.(i);
                 max_int = Option.map snd e.bounds.(i);
                 quantiles =
                   (match values.(i) with
                   | [] -> None
                   | vs -> compute_quantiles vs);
               } ))
           cols);
  }

let index_insert ix tuple =
  match ix with Avl a -> I.Avl.insert a tuple | Btree b -> I.Btree.insert b tuple

let index_length = function Avl a -> I.Avl.length a | Btree b -> I.Btree.length b

let search ix key =
  match ix with Avl a -> I.Avl.search a key | Btree b -> I.Btree.search b key

let duplicate_key name = invalid_arg ("Catalog: duplicate key in indexed table " ^ name)

(* Both trees replace on an equal key, so a short index means the
   relation holds a key twice. *)
let build_index rel kind =
  let env = S.Relation.env rel and schema = S.Relation.schema rel in
  let ix =
    match kind with
    | Avl_index -> Avl (I.Avl.create ~env ~schema ())
    | Btree_index ->
      Btree
        (I.Btree.create ~env ~schema
           ~page_size:(S.Disk.page_size (S.Relation.disk rel)) ())
  in
  S.Relation.iter_tuples_nocharge rel (index_insert ix);
  if index_length ix <> S.Relation.ntuples rel then duplicate_key (S.Relation.name rel);
  ix

let register t rel =
  let name = S.Relation.name rel in
  match Hashtbl.find_opt t name with
  | Some e when e.rel == rel && e.generation = S.Relation.generation rel ->
    fold_appended e
  | prior ->
    let kinds =
      match prior with Some e -> List.map kind_of_index e.indexes | None -> []
    in
    let e =
      {
        rel;
        generation = S.Relation.generation rel;
        indexes = List.map (build_index rel) kinds;
        counted = 0;
        npages = 0;
        bounds = Array.make (Array.length (columns rel)) None;
        full = None;
      }
    in
    fold_appended e;
    Hashtbl.replace t name e

let entry t name =
  match Hashtbl.find_opt t name with
  | Some e -> e
  | None -> raise Not_found

let find t name = (entry t name).rel
let mem t name = Hashtbl.mem t name
let names t = Hashtbl.fold (fun name _ acc -> name :: acc) t []

let stats t name =
  let e = entry t name in
  match e.full with
  | Some s -> s
  | None ->
    let s = full_stats e in
    e.full <- Some s;
    s

let column_stats t ~table ~column =
  let ts = stats t table in
  match List.assoc_opt column ts.columns with
  | Some cs -> cs
  | None -> raise Not_found

let int_bounds t ~table ~column =
  let e = entry t table in
  e.bounds.(S.Schema.column_index (S.Relation.schema e.rel) column)

let refresh t name = register t (entry t name).rel

let remove t name = Hashtbl.remove t name

let create_index t name kind =
  let e = entry t name in
  if List.exists (fun ix -> kind_of_index ix = kind) e.indexes then
    invalid_arg
      (Printf.sprintf "Catalog.create_index: %s index exists on %s" (kind_name kind) name);
  e.indexes <-
    List.sort (fun a b -> compare (rank a) (rank b)) (build_index e.rel kind :: e.indexes)

let indexes t name = (entry t name).indexes

let index_kind t name =
  match (entry t name).indexes with
  | ix :: _ -> Some (kind_of_index ix)
  | [] -> None

let lookup t name key =
  let e = entry t name in
  match e.indexes with
  | ix :: _ -> search ix key
  | [] ->
    (* Scan fallback: charged comparisons, as an unindexed scan would. *)
    let schema = S.Relation.schema e.rel and env = S.Relation.env e.rel in
    let hit = ref None in
    S.Relation.iter_tuples_nocharge e.rel (fun tuple ->
        S.Env.charge_comp env;
        if !hit = None && S.Tuple.compare_key_to schema tuple key = 0 then
          hit := Some tuple);
    !hit

let insert t name tuples =
  let e = entry t name in
  (match e.indexes with
  | [] -> ()
  | ix :: _ ->
    let schema = S.Relation.schema e.rel in
    let batch = Hashtbl.create 8 in
    List.iter
      (fun tuple ->
        let key = S.Tuple.key_bytes schema tuple in
        if Hashtbl.mem batch key || search ix key <> None then duplicate_key name;
        Hashtbl.replace batch key ())
      tuples);
  List.iter
    (fun tuple ->
      S.Relation.append_nocharge e.rel tuple;
      List.iter (fun ix -> index_insert ix tuple) e.indexes)
    tuples
