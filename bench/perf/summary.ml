(* First and third quartile by Python's [statistics.quantiles(xs, n=4)]
   (the default "exclusive" method), so spreads printed by [compare]
   match the ones an external checker computes from the same values.
   Medians and other percentiles come from [Mmdb_util.Stats]. *)
let quartiles xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then invalid_arg "Summary.quartiles: empty sample"
  else if n = 1 then (a.(0), a.(0))
  else
    let m = n + 1 in
    let cut i =
      let j = i * m / 4 and delta = (i * m) mod 4 in
      let below = a.(max 0 (min (n - 1) (j - 1))) in
      let above = a.(max 0 (min (n - 1) j)) in
      ((below *. float_of_int (4 - delta)) +. (above *. float_of_int delta)) /. 4.0
    in
    (cut 1, cut 3)
