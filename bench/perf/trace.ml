(* Spans recorded from the benchmark's own code, around its calls into
   each layer's public functions.  Every span is timed into per-layer
   statistics; the first [capacity] spans are also kept, in a buffer
   allocated up front, for the JSON-lines dump. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type layer = {
  mutable count : int;
  mutable total_ns : int;
  mutable self_ns : int;
  mutable durs : int array;  (* the first [samples l] durations, for p50 *)
  mutable root : bool;  (* opened with no enclosing span *)
}

let max_depth = 16

(* Durations kept per span name for its p50; count and times cover all. *)
let max_samples = 1 lsl 18

let samples l = min l.count max_samples

type t = {
  layers : (string, layer) Hashtbl.t;
  mutable order : string list;  (* first-seen order, newest first *)
  names : string array;
  s_id : int array;
  s_parent : int array;
  s_op : int array;
  s_start : int array;
  s_end : int array;
  mutable stored : int;
  mutable dropped : int;
  mutable next_id : int;
  mutable op : int;
  mutable depth : int;
  st_id : int array;
  st_child : int array;  (* time covered by the open span's children *)
  t0 : int;
}

let create ~capacity =
  {
    layers = Hashtbl.create 32;
    order = [];
    names = Array.make capacity "";
    s_id = Array.make capacity 0;
    s_parent = Array.make capacity 0;
    s_op = Array.make capacity 0;
    s_start = Array.make capacity 0;
    s_end = Array.make capacity 0;
    stored = 0;
    dropped = 0;
    next_id = 0;
    op = -1;
    depth = 0;
    st_id = Array.make max_depth 0;
    st_child = Array.make max_depth 0;
    t0 = now_ns ();
  }

let layer t name =
  match Hashtbl.find_opt t.layers name with
  | Some l -> l
  | None ->
    let l =
      { count = 0; total_ns = 0; self_ns = 0; durs = Array.make 1024 0; root = false }
    in
    Hashtbl.replace t.layers name l;
    t.order <- name :: t.order;
    l

let record t name ~id ~parent ~start ~stop =
  let dur = stop - start in
  let self = dur - t.st_child.(t.depth) in
  if t.depth > 0 then
    t.st_child.(t.depth - 1) <- t.st_child.(t.depth - 1) + dur;
  let l = layer t name in
  if t.depth = 0 then l.root <- true;
  if l.count < max_samples then begin
    if l.count = Array.length l.durs then begin
      let bigger = Array.make (2 * l.count) 0 in
      Array.blit l.durs 0 bigger 0 l.count;
      l.durs <- bigger
    end;
    l.durs.(l.count) <- dur
  end;
  l.count <- l.count + 1;
  l.total_ns <- l.total_ns + dur;
  l.self_ns <- l.self_ns + self;
  let i = t.stored in
  if i < Array.length t.names then begin
    t.names.(i) <- name;
    t.s_id.(i) <- id;
    t.s_parent.(i) <- parent;
    t.s_op.(i) <- t.op;
    t.s_start.(i) <- start - t.t0;
    t.s_end.(i) <- stop - t.t0;
    t.stored <- i + 1
  end
  else t.dropped <- t.dropped + 1

(* [span tr name f] runs [f], timed as a child of the innermost open
   span.  [None] runs [f] untraced, so one code path serves both runs. *)
let span tr name f =
  match tr with
  | None -> f ()
  | Some t ->
    let id = t.next_id in
    t.next_id <- id + 1;
    let parent = if t.depth = 0 then -1 else t.st_id.(t.depth - 1) in
    t.st_id.(t.depth) <- id;
    t.st_child.(t.depth) <- 0;
    t.depth <- t.depth + 1;
    let start = now_ns () in
    let finish () =
      let stop = now_ns () in
      t.depth <- t.depth - 1;
      record t name ~id ~parent ~start ~stop
    in
    (match f () with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e)

(* One workload operation: a root span, named after the entry point it
   stands for, that the layer spans hang off. *)
let op tr name f =
  (match tr with Some t -> t.op <- t.op + 1 | None -> ());
  span tr name f

type layer_summary = {
  name : string;
  calls : int;
  total : int;
  self : int;
  mean : float;
  p50 : float;
  root : bool;
}

let summarise name l =
  let durs = Array.init (samples l) (fun i -> float_of_int l.durs.(i)) in
  {
    name;
    calls = l.count;
    total = l.total_ns;
    self = l.self_ns;
    mean = float_of_int l.total_ns /. float_of_int (max 1 l.count);
    p50 = Mmdb_util.Stats.percentile durs 0.5;
    root = l.root;
  }

let summaries t =
  List.rev_map (fun name -> summarise name (Hashtbl.find t.layers name)) t.order

let find t name = Option.map (summarise name) (Hashtbl.find_opt t.layers name)
let dropped t = t.dropped

let write_jsonl t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      for i = 0 to t.stored - 1 do
        output_string oc
          (Json.to_string
             (Json.Obj
                [
                  ("name", Json.Str t.names.(i));
                  ("id", Json.Num (float_of_int t.s_id.(i)));
                  ("parent", Json.Num (float_of_int t.s_parent.(i)));
                  ("op", Json.Num (float_of_int t.s_op.(i)));
                  ("start_ns", Json.Num (float_of_int t.s_start.(i)));
                  ("end_ns", Json.Num (float_of_int t.s_end.(i)));
                ]));
        output_char oc '\n'
      done)
