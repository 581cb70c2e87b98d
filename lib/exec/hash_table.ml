module S = Mmdb_storage

(* Tuple [i] lives at [i * width] of one arena, oldest first.  Buckets
   (as many as tuple slots, a power of two) chain their tuples through
   [next] in insertion order, from [heads] to [tails]; [hashes] keeps each
   tuple's key hash, so growing re-chains without rehashing and a probe
   compares key bytes only when the hashes agree. *)
type t = {
  env : S.Env.t;
  schema : S.Schema.t;
  width : int;
  tuples_per_page : int;
  mutable arena : bytes;
  mutable hashes : int array;
  mutable next : int array;
  mutable heads : int array;
  mutable tails : int array;
  mutable count : int;
}

let create ~env ~schema ~tuples_per_page =
  if tuples_per_page <= 0 then
    invalid_arg "Hash_table.create: tuples_per_page <= 0";
  { env; schema; width = S.Schema.tuple_width schema; tuples_per_page;
    arena = Bytes.empty; hashes = [||]; next = [||]; heads = [| -1 |];
    tails = [| -1 |]; count = 0 }

let chain t i =
  let b = t.hashes.(i) land (Array.length t.heads - 1) in
  t.next.(i) <- -1;
  if t.heads.(b) < 0 then t.heads.(b) <- i else t.next.(t.tails.(b)) <- i;
  t.tails.(b) <- i

(* Called when every slot is taken: double them, and the buckets. *)
let grow t =
  let cap = max 64 (2 * t.count) in
  t.arena <- Bytes.extend t.arena 0 ((cap - t.count) * t.width);
  t.hashes <- Array.append t.hashes (Array.make (cap - t.count) 0);
  t.next <- Array.make cap (-1);
  t.heads <- Array.make cap (-1);
  t.tails <- Array.make cap (-1);
  for i = 0 to t.count - 1 do chain t i done

let insert t tuple =
  S.Env.charge_move t.env;
  if t.count = Array.length t.hashes then grow t;
  let i = t.count in
  Bytes.blit tuple 0 t.arena (i * t.width) t.width;
  t.hashes.(i) <- S.Tuple.hash_key t.schema tuple;
  chain t i;
  t.count <- i + 1

let length t = t.count
let tuples_per_page t = t.tuples_per_page

let data_pages t =
  (t.count + t.tuples_per_page - 1) / t.tuples_per_page

let memory_pages t ~fudge =
  int_of_float (Float.ceil (float_of_int (data_pages t) *. fudge))

let get t i = Bytes.sub t.arena (i * t.width) t.width

(* The first tuple from [i] on along its chain whose key equals the key
   of [tuple] (hash [h], key at [off]), or -1. *)
let rec matching t tuple off h i =
  if i < 0
     || t.hashes.(i) = h
        && S.Tuple.equal_range t.arena
             ((i * t.width) + S.Schema.key_offset t.schema)
             tuple off (S.Schema.key_width t.schema)
  then i
  else matching t tuple off h t.next.(i)

let head t h = t.heads.(h land (Array.length t.heads - 1))

let find t ~probe_schema tuple =
  let h = S.Tuple.hash_key probe_schema tuple in
  matching t tuple (S.Schema.key_offset probe_schema) h (head t h)

let probe t ~probe_schema tuple f =
  let h = S.Tuple.hash_key probe_schema tuple in
  let off = S.Schema.key_offset probe_schema in
  let i = ref (matching t tuple off h (head t h)) in
  (* One comparison rejects a probe that matches nothing. *)
  if !i < 0 then S.Env.charge_comp t.env;
  while !i >= 0 do
    S.Env.charge_comp t.env;
    f (get t !i);
    i := matching t tuple off h t.next.(!i)
  done

let clear t =
  Array.fill t.heads 0 (Array.length t.heads) (-1);
  t.count <- 0
