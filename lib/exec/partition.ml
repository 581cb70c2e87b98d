module S = Mmdb_storage

let buckets like ~write_mode n =
  Array.init n (fun i ->
      let name = Printf.sprintf "%s.part%d" (S.Relation.name like) i in
      let b = S.Relation.create ~disk:(S.Relation.disk like) ~name ~schema:(S.Relation.schema like) in
      S.Relation.set_write_mode b write_mode;
      b)

let split_fraction ~q ~nbuckets:n ~hash ~write_mode ~keep like read =
  let buckets = buckets like ~write_mode n and env = S.Relation.env like in
  read (fun tuple ->
      let u = Hash_fn.uniform hash tuple in
      if u < q then keep tuple
      else
        let scaled = (u -. q) /. Float.max 1e-12 (1.0 -. q) in
        let bucket = buckets.(min (n - 1) (max 0 (int_of_float (scaled *. float_of_int n)))) in
        S.Env.charge_move env;
        S.Relation.append bucket tuple);
  Array.iter S.Relation.seal buckets;
  buckets

let iter_bucket rel f = S.Relation.iter_tuples ~mode:S.Disk.Seq rel f

let free buckets = Array.iter S.Relation.free_pages buckets
