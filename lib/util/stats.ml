type summary = {
  n : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  p50 : float;
  p90 : float;
  p99 : float;
}

let mean xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.mean: empty sample";
  Array.fold_left ( +. ) 0.0 xs /. float_of_int n

let stddev xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.stddev: empty sample";
  if n = 1 then 0.0
  else begin
    let m = mean xs in
    let ss = Array.fold_left (fun acc x -> acc +. ((x -. m) ** 2.0)) 0.0 xs in
    sqrt (ss /. float_of_int (n - 1))
  end

let percentile_sorted sorted p =
  let n = Array.length sorted in
  if n = 1 then sorted.(0)
  else begin
    let rank = p *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = int_of_float (Float.ceil rank) in
    if lo = hi then sorted.(lo)
    else
      let w = rank -. float_of_int lo in
      ((1.0 -. w) *. sorted.(lo)) +. (w *. sorted.(hi))
  end

let percentile xs p =
  if Array.length xs = 0 then invalid_arg "Stats.percentile: empty sample";
  if p < 0.0 || p > 1.0 then invalid_arg "Stats.percentile: p outside [0,1]";
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  percentile_sorted sorted p

let summarize xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.summarize: empty sample";
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  {
    n;
    mean = mean xs;
    stddev = stddev xs;
    min = sorted.(0);
    max = sorted.(n - 1);
    p50 = percentile_sorted sorted 0.5;
    p90 = percentile_sorted sorted 0.9;
    p99 = percentile_sorted sorted 0.99;
  }
