(** Discrete-event transaction-throughput simulation (Section 5.2): a
    driver over {!Txn}, the transaction kernel.

    Transactions execute instantaneously in the memory-resident database
    (the paper: "transactions no longer need to read or write data pages
    ... they still need to perform at least one log I/O"); throughput is
    therefore bounded by the commit strategy's log behaviour.  The driver
    keeps the arrival schedule and the latency summary; each arrival is
    one {!Txn.run}, reported committed when its commit record is
    durable. *)

type result = {
  strategy_label : string;
  tps : float;
  latency : Mmdb_util.Stats.summary;  (** arrival-to-durable-commit *)
  log_pages : int;
  log_disk_bytes : int;
}

val strategy_label : Wal.strategy -> string

val run : ?nrecords:int -> ?arrival_interval:float ->
  n_txns:int -> Wal.strategy -> result
(** [run ~n_txns strategy] pushes [n_txns] banking transactions through
    the strategy.  [arrival_interval] (default 0 = saturation: all work
    available immediately) spaces arrivals for open-loop runs;
    [nrecords] (default 1000) is the account-table size;
    each transaction makes the paper's 6 updates (400-byte logs).
    @raise Wal.Unresolved_ticket if a commit ticket is still pending
    after the final flush (a WAL-invariant violation).
    @raise Mmdb_fault.Fault.Io_error from the log device when a fault
    plan is armed. *)
