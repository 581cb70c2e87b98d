(* Seeded input generators.  Everything a workload feeds the system is
   built here, before any timed phase. *)

module X = Mmdb_util.Xorshift

(* Zipf over [0, n) with skew [theta], as a cumulative table searched by
   bisection: O(log n) per draw.  ([Xorshift.zipf] walks the table
   linearly, which at n = 100k costs more than the transaction it
   feeds.) *)
let zipf_cdf ~n ~theta =
  let cdf = Array.make n 0.0 in
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    acc := !acc +. (1.0 /. Float.pow (float_of_int (i + 1)) theta);
    cdf.(i) <- !acc
  done;
  Array.map (fun c -> c /. !acc) cdf

let zipf rng cdf =
  let u = X.float rng 1.0 in
  let lo = ref 0 and hi = ref (Array.length cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cdf.(mid) < u then lo := mid + 1 else hi := mid
  done;
  !lo

(* A Gray-banking transfer: [k] distinct accounts from [draw], deltas
   paired up and rebalanced to sum to zero (as [Workload.generate]). *)
let transfer rng ~k draw =
  let slots = Array.make k (-1) in
  let filled = ref 0 in
  while !filled < k do
    let s = draw () in
    if not (Array.mem s slots) then begin
      slots.(!filled) <- s;
      incr filled
    end
  done;
  let deltas =
    Array.init k (fun j ->
        let amount = 1 + X.int rng 100 in
        if j mod 2 = 0 then amount else -amount)
  in
  let sum = Array.fold_left ( + ) 0 deltas in
  deltas.(k - 1) <- deltas.(k - 1) - sum;
  List.init k (fun j -> (slots.(j), deltas.(j)))

(* Replay transfers on a plain array: the balances oracle. *)
let apply_all ~balances txns =
  Array.iter
    (List.iter (fun (slot, delta) -> balances.(slot) <- balances.(slot) + delta))
    txns
