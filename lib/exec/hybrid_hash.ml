module S = Mmdb_storage

let partitions ~mem_pages ~fudge ~r_pages =
  let rf = float_of_int r_pages *. fudge in
  let m = float_of_int mem_pages in
  if rf <= m then 0
  else max 1 (int_of_float (Float.ceil ((rf -. m) /. (m -. 1.0))))

let q_fraction ~mem_pages ~fudge ~r_pages =
  let b = partitions ~mem_pages ~fudge ~r_pages in
  if b = 0 then 1.0
  else
    let r0 = float_of_int (mem_pages - b) /. fudge in
    Float.min 1.0 (Float.max 0.0 (r0 /. float_of_int (max 1 r_pages)))

let rec join_rec ~mem_pages ~fudge ~seed ~depth ~scan r s emit =
  let r_schema = S.Relation.schema r and s_schema = S.Relation.schema s in
  let env = S.Relation.env r in
  let hash_r = Hash_fn.create ~env ~schema:r_schema ~seed in
  let hash_s = Hash_fn.create ~env ~schema:s_schema ~seed in
  let r_pages = S.Relation.npages r in
  let b = partitions ~mem_pages ~fudge ~r_pages in
  let q = q_fraction ~mem_pages ~fudge ~r_pages in
  let write_mode = if b <= 1 then S.Disk.Seq else S.Disk.Rand in
  let r0, rb =
    Partition.split_fraction ~scan ~q ~nbuckets:b ~hash:hash_r ~write_mode r
  in
  let s0, sb =
    Partition.split_fraction ~scan ~q ~nbuckets:b ~hash:hash_s ~write_mode s
  in
  let table =
    Hash_table.create ~env ~schema:r_schema
      ~tuples_per_page:(S.Relation.tuples_per_page r)
  in
  let count = ref 0 in
  (* Partition 0 joins during the split: build from R0, probe with S0. *)
  List.iter (fun tuple -> Hash_table.insert table tuple) r0;
  List.iter
    (fun tuple ->
      Hash_table.probe table ~probe_schema:s_schema tuple (fun r_tup ->
          incr count;
          emit r_tup tuple))
    s0;
  (* Disk partitions: join each pair, recursing when R_i overflows. *)
  for i = 0 to b - 1 do
    let ri = rb.(i) and si = sb.(i) in
    if S.Relation.ntuples ri > 0 && S.Relation.ntuples si > 0 then begin
      let fits =
        float_of_int (S.Relation.npages ri) *. fudge
        <= float_of_int mem_pages
      in
      if fits || depth >= 8 then begin
        Hash_table.clear table;
        Partition.iter_bucket ri (fun tuple ->
            Hash_fn.charge hash_r;
            Hash_table.insert table tuple);
        Partition.iter_bucket si (fun tuple ->
            Hash_fn.charge hash_s;
            Hash_table.probe table ~probe_schema:s_schema tuple (fun r_tup ->
                incr count;
                emit r_tup tuple))
      end
      else
        (* Overflow: an extra pass with a fresh hash function (the
           recursive remedy of Section 3.3). *)
        count :=
          !count
          + join_rec ~mem_pages ~fudge ~seed:(seed + (depth * 7919) + 1)
              ~depth:(depth + 1)
              ~scan:(Partition.Charged S.Disk.Seq) ri si emit
    end
  done;
  Hash_table.clear table;
  Partition.free rb;
  Partition.free sb;
  !count

let join ~mem_pages ~fudge r s emit =
  if mem_pages <= 1 then invalid_arg "Hybrid_hash.join: mem_pages <= 1";
  Join_common.check_joinable (S.Relation.schema r) (S.Relation.schema s);
  join_rec ~mem_pages ~fudge ~seed:0xb1d ~depth:0 ~scan:Partition.Free r s emit
