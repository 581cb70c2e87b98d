module S = Mmdb_storage
module U = Mmdb_util

let join ~mem_pages ~fudge r s emit =
  if mem_pages <= 0 then invalid_arg "Vm_hash.join: mem_pages <= 0";
  let r_schema = S.Relation.schema r and s_schema = S.Relation.schema s in
  Join_common.check_joinable r_schema s_schema;
  let env = S.Relation.env r in
  let seed = 0x3a in
  let rng = U.Xorshift.create seed in
  let hash_r = Hash_fn.create ~env ~schema:r_schema ~seed in
  let hash_s = Hash_fn.create ~env ~schema:s_schema ~seed in
  let table =
    Hash_table.create ~env ~schema:r_schema
      ~tuples_per_page:(S.Relation.tuples_per_page r)
  in
  (* One table access under VM: fault with probability 1 - |M|/T where T
     is the table's current size in memory pages. *)
  let vm_touch () =
    let t_pages = max 1 (Hash_table.memory_pages table ~fudge) in
    if t_pages > mem_pages then begin
      let fault_prob =
        1.0 -. (float_of_int mem_pages /. float_of_int t_pages)
      in
      if U.Xorshift.float rng 1.0 < fault_prob then
        S.Env.charge_io_rand_read env
    end
  in
  (* Build over all of R. *)
  S.Relation.iter_tuples_nocharge r (fun tuple ->
      Hash_fn.charge hash_r;
      vm_touch ();
      Hash_table.insert table tuple);
  (* Probe with all of S. *)
  let count = ref 0 in
  S.Relation.iter_tuples_nocharge s (fun tuple ->
      Hash_fn.charge hash_s;
      vm_touch ();
      Hash_table.probe table ~probe_schema:s_schema tuple (fun r_tup ->
          incr count;
          emit r_tup tuple));
  Hash_table.clear table;
  !count
