type t = {
  rel_name : string;
  rel_schema : Schema.t;
  rel_disk : Disk.t;
  mutable pages : int list; (* reversed page ids *)
  mutable npages : int;
  mutable ntuples : int;
  mutable tail : bytes option; (* partial page being filled *)
  mutable reopen : int option;
      (* id of the last disk page while it has room: sealed partial, or
         reopened as the tail, which the next spill then rewrites *)
  mutable generation : int; (* bumped when the tuples are dropped *)
  mutable charged : bool; (* whether any charged append happened *)
  mutable write_mode : Disk.io_mode; (* pricing of charged spills *)
}

let create ~disk ~name ~schema =
  (* Validate the schema fits the page size up front. *)
  ignore
    (Page.capacity ~page_size:(Disk.page_size disk)
       ~tuple_width:(Schema.tuple_width schema));
  {
    rel_name = name;
    rel_schema = schema;
    rel_disk = disk;
    pages = [];
    npages = 0;
    ntuples = 0;
    tail = None;
    reopen = None;
    generation = 0;
    charged = false;
    write_mode = Disk.Seq;
  }

let name t = t.rel_name
let schema t = t.rel_schema
let disk t = t.rel_disk
let env t = Disk.env t.rel_disk
let ntuples t = t.ntuples
let generation t = t.generation

let tuples_per_page t =
  Page.capacity ~page_size:(Disk.page_size t.rel_disk)
    ~tuple_width:(Schema.tuple_width t.rel_schema)

let npages t =
  t.npages + (match (t.tail, t.reopen) with Some _, None -> 1 | _ -> 0)

let set_write_mode t mode = t.write_mode <- mode

(* Write the tail to its page: the reopened last page when there is one,
   a newly allocated page otherwise. *)
let spill t page ~charge =
  let pid =
    match t.reopen with
    | Some pid -> pid
    | None ->
      let pid = Disk.alloc t.rel_disk in
      t.pages <- pid :: t.pages;
      t.npages <- t.npages + 1;
      pid
  in
  if charge then Disk.write t.rel_disk ~mode:t.write_mode pid page
  else Disk.write_nocharge t.rel_disk pid page;
  pid

(* An append after {!seal} refills the partial last page instead of
   starting a new one, so single-row inserts do not leave a page each. *)
let tail_page t =
  match (t.tail, t.reopen) with
  | Some p, _ -> p
  | None, Some pid ->
    let p = Disk.read_nocharge t.rel_disk pid in
    t.tail <- Some p;
    p
  | None, None ->
    let p = Disk.frame t.rel_disk in
    t.tail <- Some p;
    p

let append_common t tuple ~charge =
  let tw = Schema.tuple_width t.rel_schema in
  if Bytes.length tuple <> tw then
    invalid_arg "Relation.append: tuple width mismatch";
  if charge then t.charged <- true;
  let page = tail_page t in
  if not (Page.append page ~tuple_width:tw tuple) then begin
    ignore (spill t page ~charge);
    t.reopen <- None;
    (* The disk stored a copy, so the tail page starts over in place. *)
    Bytes.fill page 0 (Bytes.length page) '\000';
    let ok = Page.append page ~tuple_width:tw tuple in
    assert ok
  end;
  t.ntuples <- t.ntuples + 1

let append t tuple = append_common t tuple ~charge:true
let append_nocharge t tuple = append_common t tuple ~charge:false

let seal t =
  match t.tail with
  | None -> ()
  | Some page ->
    if Page.count page > 0 then begin
      let pid = spill t page ~charge:t.charged in
      t.reopen <- (if Page.count page < tuples_per_page t then Some pid else None)
    end;
    t.tail <- None;
    Disk.recycle t.rel_disk page

let page_ids t = Array.of_list (List.rev t.pages)

(* Both scans walk stored pages in place; {!Disk.iter} copies when armed. *)
let iter_with iter t f =
  seal t;
  let tw = Schema.tuple_width t.rel_schema in
  Array.iter (fun pid -> iter t.rel_disk pid ~tuple_width:tw (fun _ tup -> f tup)) (page_ids t)

let iter_tuples ?(mode = Disk.Seq) t f = iter_with (Disk.iter ~mode) t f
let iter_tuples_nocharge t f = iter_with Disk.iter_nocharge t f

let iter_tuples_from_nocharge t ~start f =
  seal t;
  (* Newest pages first, until they hold the [ntuples - start] wanted. *)
  let rec collect acc wanted = function
    | pid :: older when wanted > 0 ->
      collect (pid :: acc) (wanted - Disk.count_nocharge t.rel_disk pid) older
    | _ -> (acc, wanted)
  in
  let pids, wanted = collect [] (t.ntuples - start) t.pages in
  let skip = ref (max 0 (-wanted)) in
  let tw = Schema.tuple_width t.rel_schema in
  List.iter
    (fun pid ->
      Disk.iter_nocharge t.rel_disk pid ~tuple_width:tw (fun _ tup ->
          if !skip > 0 then decr skip else f tup))
    pids

let of_tuples ~disk ~name ~schema tuples =
  let t = create ~disk ~name ~schema in
  List.iter (append_nocharge t) tuples;
  seal t;
  t

let with_schema t schema =
  if Schema.tuple_width schema <> Schema.tuple_width t.rel_schema then
    invalid_arg "Relation.with_schema: tuple width mismatch";
  seal t;
  { t with rel_schema = schema }

let to_list t =
  let acc = ref [] in
  iter_tuples_nocharge t (fun tup -> acc := tup :: !acc);
  List.rev !acc

let free_pages t =
  seal t;
  List.iter (Disk.free t.rel_disk) t.pages;
  t.pages <- [];
  t.npages <- 0;
  t.ntuples <- 0;
  t.generation <- t.generation + 1;
  t.charged <- false;
  t.tail <- None;
  t.reopen <- None
