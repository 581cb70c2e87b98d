module F = Mmdb_fault.Fault
module O = Mmdb_overload.Overload

type t = {
  mutable comparisons : int;
  mutable hashes : int;
  mutable moves : int;
  mutable swaps : int;
  mutable seq_reads : int;
  mutable seq_writes : int;
  mutable rand_reads : int;
  mutable rand_writes : int;
  mutable faults : int;
  mutable pool_hits : int;
  fault : F.tally;
  ovld : O.tally;
}

let create () =
  {
    comparisons = 0;
    hashes = 0;
    moves = 0;
    swaps = 0;
    seq_reads = 0;
    seq_writes = 0;
    rand_reads = 0;
    rand_writes = 0;
    faults = 0;
    pool_hits = 0;
    fault = F.tally_create ();
    ovld = O.tally_create ();
  }

let reset t =
  t.comparisons <- 0;
  t.hashes <- 0;
  t.moves <- 0;
  t.swaps <- 0;
  t.seq_reads <- 0;
  t.seq_writes <- 0;
  t.rand_reads <- 0;
  t.rand_writes <- 0;
  t.faults <- 0;
  t.pool_hits <- 0;
  F.tally_reset t.fault;
  O.tally_reset t.ovld

let snapshot t =
  {
    comparisons = t.comparisons;
    hashes = t.hashes;
    moves = t.moves;
    swaps = t.swaps;
    seq_reads = t.seq_reads;
    seq_writes = t.seq_writes;
    rand_reads = t.rand_reads;
    rand_writes = t.rand_writes;
    faults = t.faults;
    pool_hits = t.pool_hits;
    fault = F.tally_copy t.fault;
    ovld = O.tally_copy t.ovld;
  }

let diff ~after ~before =
  {
    comparisons = after.comparisons - before.comparisons;
    hashes = after.hashes - before.hashes;
    moves = after.moves - before.moves;
    swaps = after.swaps - before.swaps;
    seq_reads = after.seq_reads - before.seq_reads;
    seq_writes = after.seq_writes - before.seq_writes;
    rand_reads = after.rand_reads - before.rand_reads;
    rand_writes = after.rand_writes - before.rand_writes;
    faults = after.faults - before.faults;
    pool_hits = after.pool_hits - before.pool_hits;
    fault = F.tally_diff ~after:after.fault ~before:before.fault;
    ovld = O.tally_diff ~after:after.ovld ~before:before.ovld;
  }

let total_io t = t.seq_reads + t.seq_writes + t.rand_reads + t.rand_writes

let pp ppf t =
  Format.fprintf ppf
    "comp=%d hash=%d move=%d swap=%d seqR=%d seqW=%d randR=%d randW=%d \
     faults=%d hits=%d"
    t.comparisons t.hashes t.moves t.swaps t.seq_reads t.seq_writes
    t.rand_reads t.rand_writes t.faults t.pool_hits;
  if F.tally_total t.fault > 0 then
    Format.fprintf ppf " media[%a]" F.pp_tally t.fault;
  if O.tally_total t.ovld + t.ovld.O.admitted > 0 then
    Format.fprintf ppf " ovld[%a]" O.pp_tally t.ovld

let io_retries t = t.fault.F.retried
let io_retry_backoff t = t.fault.F.retry_backoff
let sheds t = O.sheds t.ovld
let breaker_trips t = t.ovld.O.breaker_trips
