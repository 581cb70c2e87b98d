module S = Mmdb_storage

let partitions ~mem_pages ~fudge ~r_pages =
  let rf = float_of_int r_pages *. fudge and m = float_of_int mem_pages in
  if rf <= m then (0, 1.0)
  else
    let b = max 1 (int_of_float (Float.ceil ((rf -. m) /. (m -. 1.0)))) in
    let r0 = float_of_int (mem_pages - b) /. fudge in
    (b, Float.min 1.0 (Float.max 0.0 (r0 /. float_of_int (max 1 r_pages))))

type input = {
  like : S.Relation.t;
  read : (bytes -> unit) -> unit;
  arrive : full:(unit -> bool) -> bytes -> bool;
}

type sizing = Build | Estimate

let run ~mem_pages ~fudge ~sizing ~table ~flush ~seed ~r_pages inputs =
  let cap = int_of_float (float_of_int mem_pages /. fudge) in
  let tuples_per_page = Hash_table.tuples_per_page table in
  let peak = ref 0 in
  let rec level ~seed ~depth ~r_pages inputs =
    let b, q = partitions ~mem_pages ~fudge ~r_pages in
    let write_mode = if b <= 1 then S.Disk.Seq else S.Disk.Rand in
    let hash i = Hash_fn.create ~env:(S.Relation.env i.like) ~schema:(S.Relation.schema i.like) ~seed in
    let ins = List.map (fun i -> (i, hash i)) inputs in
    (* Re-split [parts], one per input, with a fresh hash (Section 3.3). *)
    let deeper ~r_pages parts =
      (* perf_lint: one frame per level, and levels stop at depth 8 *)
      level ~seed:(seed + (depth * 7919) + 1) ~depth:(depth + 1) ~r_pages
        (List.map2 (fun i p -> { i with like = p; read = Partition.iter_bucket p }) inputs parts)
    in
    let full () = depth < 8 && Hash_table.length table / tuples_per_page >= cap in
    (* Feed every input its tuples through [feeds], in input order, each
       charged a hash when [hashed].  A tuple the full table refuses moves
       to its input's overflow partition, re-split once the phase's
       entries are flushed. *)
    let phase ~hashed feeds =
      let over =
        List.map2
          (fun (i, h) feed ->
            let o = (Partition.buckets i.like ~write_mode:S.Disk.Seq 1).(0) in
            feed (fun t ->
                if hashed then Hash_fn.charge h;
                if not (i.arrive ~full t) then begin
                  S.Env.charge_move (S.Relation.env o);
                  S.Relation.append o t
                end);
            o)
          ins feeds
      in
      peak := max !peak (Hash_table.data_pages table);
      flush ();
      Hash_table.clear table;
      let n = List.fold_left (fun n o -> n + S.Relation.ntuples o) 0 over in
      if n > 0 then deeper ~r_pages:((n + tuples_per_page - 1) / tuples_per_page) over;
      List.iter S.Relation.free_pages over
    in
    (* With no bucket every tuple stays, and [keep] charges its hash. *)
    let split i hash keep =
      if b = 0 then (i.read keep; [||])
      else Partition.split_fraction ~q ~nbuckets:b ~hash ~write_mode ~keep i.like i.read
    in
    let parts =
      match sizing with
      | Estimate ->
        (* Each resident tuple arrives as the split reads it: no input is
           held in memory. *)
        let parts = ref [] in
        phase ~hashed:(b = 0) (List.map (fun (i, h) keep -> parts := split i h keep :: !parts) ins);
        List.rev !parts
      | Build ->
        (* R0 and S0 are held until both relations are split. *)
        let held = List.map (fun _ -> ref []) inputs in
        let hold (i, h) mem = split i h (fun t -> if b = 0 then Hash_fn.charge h; mem := t :: !mem) in
        let parts = List.map2 hold ins held in
        phase ~hashed:false (List.map (fun mem keep -> List.iter keep (List.rev !mem)) held);
        parts
    in
    for j = 0 to b - 1 do
      let bucket = List.map (fun p -> p.(j)) parts in
      let nonempty p = S.Relation.ntuples p > 0 in
      let reread () = phase ~hashed:true (List.map Partition.iter_bucket bucket) in
      match (sizing, bucket) with
      | Build, build :: _ when List.for_all nonempty bucket ->
        (* R_i's size is known: re-split it up front when its table would
           overflow memory. *)
        let r_pages = S.Relation.npages build in
        if depth < 8 && float_of_int r_pages *. fudge > float_of_int mem_pages then
          deeper ~r_pages bucket
        else reread ()
      | Estimate, _ when List.exists nonempty bucket -> reread ()
      | (Build | Estimate), _ -> ()
    done;
    List.iter Partition.free parts
  in
  level ~seed ~depth:0 ~r_pages inputs;
  !peak

let join ~mem_pages ~fudge r s emit =
  if mem_pages <= 1 then invalid_arg "Hybrid_hash.join: mem_pages <= 1";
  Join_common.check_joinable (S.Relation.schema r) (S.Relation.schema s);
  let table =
    Hash_table.create ~env:(S.Relation.env r) ~schema:(S.Relation.schema r)
      ~tuples_per_page:(S.Relation.tuples_per_page r)
  in
  let count = ref 0 in
  let input rel arrive = { like = rel; read = S.Relation.iter_tuples_nocharge rel; arrive } in
  let build ~full:_ r_tup = Hash_table.insert table r_tup; true in
  let probe ~full:_ s_tup =
    Hash_table.probe table ~probe_schema:(S.Relation.schema s) s_tup (fun r_tup ->
        incr count;
        emit r_tup s_tup);
    true
  in
  ignore
    (run ~mem_pages ~fudge ~sizing:Build ~table ~flush:ignore ~seed:0xb1d
       ~r_pages:(S.Relation.npages r) [ input r build; input s probe ]);
  !count
