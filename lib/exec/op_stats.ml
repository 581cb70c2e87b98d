module S = Mmdb_storage

type t = {
  output_tuples : int;
  seconds : float;
  counters : S.Counters.t;
}

let measure env f =
  let t0 = S.Env.elapsed env in
  let before = S.Counters.snapshot env.S.Env.counters in
  let output_tuples = f () in
  {
    output_tuples;
    seconds = S.Env.elapsed env -. t0;
    counters = S.Counters.diff ~after:env.S.Env.counters ~before;
  }
