module S = Mmdb_storage

let passes ~mem_pages ~fudge ~r_pages =
  max 1
    (int_of_float
       (Float.ceil (float_of_int r_pages *. fudge /. float_of_int mem_pages)))

let join ~mem_pages ~fudge r s emit =
  if mem_pages <= 0 then invalid_arg "Simple_hash.join: mem_pages <= 0";
  let r_schema = S.Relation.schema r and s_schema = S.Relation.schema s in
  Join_common.check_joinable r_schema s_schema;
  let env = S.Relation.env r in
  let disk = S.Relation.disk r in
  let hash_r = Hash_fn.create ~env ~schema:r_schema ~seed:0x51 in
  let hash_s = Hash_fn.create ~env ~schema:s_schema ~seed:0x51 in
  let table =
    Hash_table.create ~env ~schema:r_schema
      ~tuples_per_page:(S.Relation.tuples_per_page r)
  in
  (* Fraction of the original hash domain absorbed per pass: |M|/F pages
     of the original R. *)
  let frac =
    Float.min 1.0
      (float_of_int mem_pages /. fudge
      /. float_of_int (max 1 (S.Relation.npages r)))
  in
  let count = ref 0 in
  let pass_no = ref 0 in
  let lo = ref 0.0 in
  let r_rest = ref r and s_rest = ref s in
  let continue = ref true in
  while !continue do
    let first_pass = !pass_no = 0 in
    let window_hi = if !lo +. frac >= 1.0 -. 1e-12 then 1.0 else !lo +. frac in
    let in_window u = u >= !lo && u < window_hi in
    let scan rel f =
      if first_pass then S.Relation.iter_tuples_nocharge rel f
      else S.Relation.iter_tuples ~mode:S.Disk.Seq rel f
    in
    (* Step 1: slice R into the table; pass over the rest. *)
    Hash_table.clear table;
    let next_r =
      S.Relation.create ~disk
        ~name:(Printf.sprintf "%s.passed%d" (S.Relation.name r) !pass_no)
        ~schema:r_schema
    in
    scan !r_rest (fun tuple ->
        let u = Hash_fn.uniform hash_r tuple in
        if in_window u then Hash_table.insert table tuple
        else begin
          S.Env.charge_move env;
          S.Relation.append next_r tuple
        end);
    S.Relation.seal next_r;
    (* Step 2: probe with the matching slice of S; pass over the rest. *)
    let next_s =
      S.Relation.create ~disk
        ~name:(Printf.sprintf "%s.passed%d" (S.Relation.name s) !pass_no)
        ~schema:s_schema
    in
    scan !s_rest (fun tuple ->
        let u = Hash_fn.uniform hash_s tuple in
        if in_window u then
          Hash_table.probe table ~probe_schema:s_schema tuple (fun r_tup ->
              incr count;
              emit r_tup tuple)
        else begin
          S.Env.charge_move env;
          S.Relation.append next_s tuple
        end);
    S.Relation.seal next_s;
    (* Step 3: recurse on the passed-over files. *)
    if not first_pass then begin
      S.Relation.free_pages !r_rest;
      S.Relation.free_pages !s_rest
    end;
    if S.Relation.ntuples next_r = 0 then begin
      S.Relation.free_pages next_r;
      S.Relation.free_pages next_s;
      continue := false
    end
    else begin
      r_rest := next_r;
      s_rest := next_s;
      lo := window_hi;
      incr pass_no;
      (* The final window reaches 1.0, so the passed-over set is always
         empty by then: tuples can never be left behind. *)
      assert (!lo < 1.0)
    end
  done;
  Hash_table.clear table;
  !count
