(** Partitioned parallel log replay (redo engine).

    The caller builds a plan from the merged redo stream, in log order:
    {!create}, then {!add_op} and {!add_command} per eligible record,
    then {!run}.  Ops are split across [workers] partitions by page
    ([partition_of slot]) into per-partition arrays as they are added;
    each partition replays its own ops in log order, so per-slot
    ordering is preserved no matter how partitions interleave.  A
    command's ops are additive deltas on single slots, so a command
    whose ops span partitions is split the same way: each op joins its
    own slot's partition, and no partition ever waits for another.

    Two execution modes read the same arrays and produce the identical
    final state:

    - {b simulated} (default): a deterministic round-robin scheduler
      interleaves partitions one op at a time on the calling domain.
      This mode can stamp a {!Schedule} recorder (each applied op emits
      Grant/Write/Release under its slot key, stamped with its slot's
      partition as the acting domain, so the race codes of
      {!Mmdb_verify.Schedule_check} can audit the
      interleaving) and can crash mid-replay via [on_step].
    - {b domains} ([use_domains:true]):
      one {!Domain_runner.run} for the whole replay, one worker per
      partition over disjoint pages.  Recording and crash injection are
      rejected in this mode (they would be nondeterministic), so
      passing either forces simulated mode. *)

type action =
  | Set of int  (** value record: store the after-image *)
  | Add of int  (** command record: re-execute the delta *)

type t
(** A replay plan: per-partition op arrays and their counters. *)

val create : workers:int -> partition_of:(int -> int) -> t
(** An empty plan over [workers] partitions; slot [s] belongs to
    partition [partition_of s] (taken modulo [workers]).
    @raise Invalid_argument if [workers <= 0]. *)

val add_op : t -> txn:int -> slot:int -> action -> unit
(** Append partition-local work: a value-record update, or one op of a
    command record. *)

val add_command : t -> txn:int -> (int * int) list -> unit
(** Append a command record's eligible [(slot, delta)] ops, each as an
    [Add] in its own slot's partition.  A command whose ops span two or
    more partitions is counted in [barriers] and its ops in
    [barrier_ops]; otherwise its ops count as local. *)

type stats = {
  workers : int;  (** partition count (>= 1) *)
  local_ops : int;  (** ops of value records and single-partition commands *)
  barrier_ops : int;  (** ops of cross-partition commands *)
  barriers : int;  (** cross-partition commands *)
  used_domains : bool;  (** true iff real domains ran the replay *)
}

val run :
  ?recorder:Schedule.recorder ->
  ?use_domains:bool ->
  ?on_step:(unit -> unit) ->
  apply:(slot:int -> action -> unit) ->
  t ->
  stats
(** [run ~apply plan] replays the plan once and returns what it did.
    [apply] must only mutate state owned by the slot's partition: in
    domains mode it runs concurrently.  [on_step] is invoked after
    every applied op — the hook the store uses to count progress and
    crash mid-recovery; supplying it, or [recorder], forces the
    simulated scheduler.  An exception from [apply] propagates out of
    [run] in both modes; in domains mode the other workers finish
    their partitions and are joined first. *)
