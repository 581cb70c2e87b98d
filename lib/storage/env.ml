type t = {
  cost : Cost.t;
  clock : Sim_clock.t;
  counters : Counters.t;
}

let create () =
  { cost = Cost.table2; clock = Sim_clock.create (); counters = Counters.create () }

let charge_comp t =
  t.counters.Counters.comparisons <- t.counters.Counters.comparisons + 1;
  Sim_clock.advance t.clock t.cost.Cost.comp

let charge_comps t n =
  if n > 0 then begin
    t.counters.Counters.comparisons <- t.counters.Counters.comparisons + n;
    Sim_clock.advance t.clock (float_of_int n *. t.cost.Cost.comp)
  end

let charge_hash t =
  t.counters.Counters.hashes <- t.counters.Counters.hashes + 1;
  Sim_clock.advance t.clock t.cost.Cost.hash

let charge_move t =
  t.counters.Counters.moves <- t.counters.Counters.moves + 1;
  Sim_clock.advance t.clock t.cost.Cost.move

let charge_swap t =
  t.counters.Counters.swaps <- t.counters.Counters.swaps + 1;
  Sim_clock.advance t.clock t.cost.Cost.swap

let charge_io_seq_read t =
  t.counters.Counters.seq_reads <- t.counters.Counters.seq_reads + 1;
  Sim_clock.advance t.clock t.cost.Cost.io_seq

let charge_io_seq_write t =
  t.counters.Counters.seq_writes <- t.counters.Counters.seq_writes + 1;
  Sim_clock.advance t.clock t.cost.Cost.io_seq

let charge_io_rand_read t =
  t.counters.Counters.rand_reads <- t.counters.Counters.rand_reads + 1;
  Sim_clock.advance t.clock t.cost.Cost.io_rand

let charge_io_rand_write t =
  t.counters.Counters.rand_writes <- t.counters.Counters.rand_writes + 1;
  Sim_clock.advance t.clock t.cost.Cost.io_rand

let elapsed t = Sim_clock.now t.clock
