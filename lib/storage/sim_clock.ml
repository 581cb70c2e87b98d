type t = { mutable time : float }

let create () = { time = 0.0 }
let now t = t.time

let advance t dt =
  if dt < 0.0 then invalid_arg "Sim_clock.advance: negative dt";
  t.time <- t.time +. dt

let advance_to t at = if at > t.time then t.time <- at
