module S = Mmdb_storage

type t = { env : S.Env.t; schema : S.Schema.t; seed : int }

let create ~env ~schema ~seed = { env; schema; seed }

(* Mix the FNV key hash with the seed through a splitmix64-style finaliser
   so different seeds give effectively independent functions. *)
let mix h seed =
  let x = Int64.of_int (h lxor seed) in
  let x = Int64.mul (Int64.logxor x (Int64.shift_right_logical x 30)) 0xBF58476D1CE4E5B9L in
  let x = Int64.mul (Int64.logxor x (Int64.shift_right_logical x 27)) 0x94D049BB133111EBL in
  let x = Int64.logxor x (Int64.shift_right_logical x 31) in
  Int64.to_int (Int64.shift_right_logical x 2)

let charge t = S.Env.charge_hash t.env

let hash t tuple =
  charge t;
  mix (S.Tuple.hash_key t.schema tuple) t.seed

let uniform t tuple =
  let h = hash t tuple in
  float_of_int (h land 0xFFFFFF) /. 16777216.0
