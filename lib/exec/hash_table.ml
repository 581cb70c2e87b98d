module S = Mmdb_storage

type t = {
  env : S.Env.t;
  schema : S.Schema.t;
  tuples_per_page : int;
  buckets : (string, bytes list ref) Hashtbl.t; (* key bytes -> tuples *)
  mutable count : int;
}

let create ~env ~schema ~tuples_per_page =
  if tuples_per_page <= 0 then
    invalid_arg "Hash_table.create: tuples_per_page <= 0";
  { env; schema; tuples_per_page; buckets = Hashtbl.create 256; count = 0 }

let key_string schema tuple =
  Bytes.unsafe_to_string (S.Tuple.key_bytes schema tuple)

let insert t tuple =
  S.Env.charge_move t.env;
  let k = key_string t.schema tuple in
  (match Hashtbl.find_opt t.buckets k with
  | Some cell -> cell := tuple :: !cell
  | None -> Hashtbl.replace t.buckets k (ref [ tuple ]));
  t.count <- t.count + 1

let length t = t.count

let data_pages t =
  (t.count + t.tuples_per_page - 1) / t.tuples_per_page

let memory_pages t ~fudge =
  int_of_float (Float.ceil (float_of_int (data_pages t) *. fudge))

let probe t ~probe_schema s_tuple f =
  let k = key_string probe_schema s_tuple in
  match Hashtbl.find_opt t.buckets k with
  | None ->
    (* One comparison to reject the empty bucket. *)
    S.Env.charge_comp t.env
  | Some cell ->
    List.iter
      (fun r_tuple ->
        S.Env.charge_comp t.env;
        f r_tuple)
      (List.rev !cell)

let clear t =
  Hashtbl.reset t.buckets;
  t.count <- 0
