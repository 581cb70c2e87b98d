module S = Mmdb_storage

let join ~mem_pages ~fudge r s emit =
  if mem_pages <= 0 then invalid_arg "Grace_hash.join: mem_pages <= 0";
  let r_schema = S.Relation.schema r and s_schema = S.Relation.schema s in
  Join_common.check_joinable r_schema s_schema;
  let env = S.Relation.env r in
  let hash_r = Hash_fn.create ~env ~schema:r_schema ~seed:0x6ace in
  let hash_s = Hash_fn.create ~env ~schema:s_schema ~seed:0x6ace in
  (* The paper partitions into |M| sets (one output buffer per set).  We
     cap the count at what phase 2 actually needs — enough sets that each
     R_i's hash table fits in memory, with 2x slack for skew — so a huge
     |M| does not shatter R into thousands of near-empty pages the cost
     model never charges for. *)
  let needed =
    let rf = float_of_int (S.Relation.npages r) *. fudge in
    int_of_float (Float.ceil (2.0 *. rf /. float_of_int mem_pages))
  in
  let nbuckets = max 1 (min mem_pages (max needed 1)) in
  let split hash rel =
    Partition.split_fraction ~q:0.0 ~nbuckets ~hash ~write_mode:S.Disk.Rand ~keep:ignore rel
      (S.Relation.iter_tuples_nocharge rel)
  in
  let rb = split hash_r r and sb = split hash_s s in
  let table =
    Hash_table.create ~env ~schema:r_schema
      ~tuples_per_page:(S.Relation.tuples_per_page r)
  in
  let count = ref 0 in
  for i = 0 to nbuckets - 1 do
    if S.Relation.ntuples rb.(i) > 0 || S.Relation.ntuples sb.(i) > 0 then begin
      Hash_table.clear table;
      (* Build: read R_i back (sequential) and hash every tuple into the
         table. *)
      Partition.iter_bucket rb.(i) (fun tuple ->
          Hash_fn.charge hash_r;
          Hash_table.insert table tuple);
      (* Probe with S_i. *)
      Partition.iter_bucket sb.(i) (fun tuple ->
          Hash_fn.charge hash_s;
          Hash_table.probe table ~probe_schema:s_schema tuple (fun r_tup ->
              incr count;
              emit r_tup tuple))
    end
  done;
  Hash_table.clear table;
  Partition.free rb;
  Partition.free sb;
  !count
