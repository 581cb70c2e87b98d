(** Partitioned parallel log replay (redo engine).

    The caller builds a plan from the merged redo stream, in log order:
    {!create}, then {!add_op} and {!add_command} per eligible record,
    then {!run}.  Ops are split across the partitions by page
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

(** An op is a [kind], a slot and an int; [kind] is an immediate, so
    pushing or applying an op allocates nothing. *)
type kind = Set  (** store the after-image *) | Add  (** add the delta *)

type t
(** A replay plan: per-partition op arrays and their counters. *)

val create : capacity:int array -> partition_of:(int -> int) -> t
(** An empty plan with one partition per entry of [capacity]; slot [s]
    belongs to partition [partition_of s] (modulo the partition count).
    Partition [p]'s array is allocated here, once, for [capacity.(p)]
    ops, and never grows: {!Kv_store.recover} sizes it by counting, in
    its analysis pass, the partition's ops above their page's redo gate.
    @raise Invalid_argument if [capacity] is empty or has an entry < 0. *)

val add_op : t -> txn:int -> slot:int -> kind -> int -> unit
(** Append partition-local work: a value-record update ([Set]), or one
    op of a command record ([Add]).
    @raise Invalid_argument if the slot's partition is full. *)

val add_command : t -> txn:int -> (int * int) list -> unit
(** Append a command record's eligible [(slot, delta)] ops, each as an
    [Add] in its own slot's partition.  A command whose ops span two or
    more partitions is counted in [barriers] and its ops in
    [barrier_ops]; otherwise its ops count as local.  Raises as
    {!add_op} does. *)

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
  apply:(slot:int -> kind -> int -> unit) ->
  t ->
  stats
(** [run ~apply plan] replays the plan once and returns what it did.
    [apply ~slot kind arg] must only mutate state owned by the slot's
    partition: in domains mode it runs concurrently.  Without
    [recorder], [run] allocates nothing per op.  [on_step] is invoked after
    every applied op — the hook the store uses to count progress and
    crash mid-recovery; supplying it, or [recorder], forces the
    simulated scheduler.  An exception from [apply] propagates out of
    [run] in both modes; in domains mode the other workers finish
    their partitions and are joined first. *)
