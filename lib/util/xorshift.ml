(* The Zipf normaliser memo lives inside the stream (not at module
   level): streams are passed per-domain by value, so a generator owns
   all of its mutable state and two domains never share a table. *)
type t = {
  mutable state : int64;
  zeta_memo : (int * float, float) Hashtbl.t;  (* (n, theta) -> normaliser *)
}

let default_nonzero = 0x9E3779B97F4A7C15L

let create seed =
  let s = Int64.of_int seed in
  {
    state = (if Int64.equal s 0L then default_nonzero else s);
    zeta_memo = Hashtbl.create 7;
  }

(* xorshift64* : Vigna, "An experimental exploration of Marsaglia's xorshift
   generators, scrambled". *)
let next_int64 t =
  let x = t.state in
  let x = Int64.logxor x (Int64.shift_left x 13) in
  let x = Int64.logxor x (Int64.shift_right_logical x 7) in
  let x = Int64.logxor x (Int64.shift_left x 17) in
  t.state <- x;
  Int64.mul x 0x2545F4914F6CDD1DL

(* Non-negative 62-bit value: safe to convert to OCaml int on 64-bit. *)
let next_nonneg t = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2)

let int t bound =
  if bound <= 0 then invalid_arg "Xorshift.int: bound must be positive";
  next_nonneg t mod bound

let int_in_range t ~lo ~hi =
  if hi < lo then invalid_arg "Xorshift.int_in_range: hi < lo";
  lo + int t (hi - lo + 1)

let float t bound =
  let x = next_nonneg t in
  bound *. (float_of_int x /. 4611686018427387904.0)

let bool t = Int64.compare (next_int64 t) 0L < 0

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let sample_without_replacement t ~n ~k =
  if k < 0 || k > n then
    invalid_arg "Xorshift.sample_without_replacement: need 0 <= k <= n";
  (* Partial Fisher-Yates over a lazily materialised identity permutation:
     O(k) space via a hashtable of displaced slots. *)
  let displaced = Hashtbl.create (2 * k) in
  let get i = match Hashtbl.find_opt displaced i with Some v -> v | None -> i in
  Array.init k (fun i ->
      let j = int_in_range t ~lo:i ~hi:(n - 1) in
      let vi = get i and vj = get j in
      Hashtbl.replace displaced j vi;
      Hashtbl.replace displaced i vj;
      vj)

let exponential t ~mean =
  let u = float t 1.0 in
  (* Guard against log 0. *)
  let u = if u <= 0.0 then 1e-18 else u in
  -.mean *. log u

(* Zipf via the classic Gray et al. (SIGMOD'94) self-similar trick is not
   exact; we use the standard inverse-power CDF with a precomputed
   normaliser memoised per stream and (n, theta).  The memo is tiny:
   experiments use a handful of distinct configurations. *)
let zeta t n theta =
  match Hashtbl.find_opt t.zeta_memo (n, theta) with
  | Some z -> z
  | None ->
    let z = ref 0.0 in
    for i = 1 to n do
      z := !z +. (1.0 /. Float.pow (float_of_int i) theta)
    done;
    Hashtbl.replace t.zeta_memo (n, theta) !z;
    !z

let zipf t ~n ~theta =
  if n <= 0 then invalid_arg "Xorshift.zipf: n must be positive";
  if theta <= 0.0 then int t n
  else begin
    let zn = zeta t n theta in
    let u = float t 1.0 *. zn in
    let rec find i acc =
      if i > n then n - 1
      else
        let acc = acc +. (1.0 /. Float.pow (float_of_int i) theta) in
        if acc >= u then i - 1 else find (i + 1) acc
    in
    find 1 0.0
  end
