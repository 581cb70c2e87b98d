(** Seeded, deterministic fault-injection plans.

    A plan is a list of rules: a {!Fault.site} (where), a {!Fault.kind}
    (what), and a trigger (when).  Instrumented sites — the simulated
    disk, the buffer pool, the log devices, stable memory, the snapshot
    store — call {!draw} once per operation; the plan consults its
    trigger state and its private {!Mmdb_util.Xorshift} stream and
    answers whether (and which) fault to inject.  All randomness flows
    through the plan's own generator, so every fault schedule is
    reproducible from its seed and independent of workload randomness.

    The plan also owns the fault {!Fault.tally} and an event log of
    [(FAULT code, detail)] pairs; sites report injections, detections,
    retries, repairs, and unrecoverable outcomes through the [note_*]
    helpers so one object accumulates the whole run's fault story. *)

type trigger =
  | Always  (** fire on every operation at the site *)
  | Prob of float  (** fire with this per-operation probability *)
  | On_op of int  (** fire exactly on the [n]th operation (1-based) *)
  | Every of int  (** fire on every [n]th operation *)
  | Between of { lo : int; hi : int; every : int }
      (** fire on every [every]th operation inside the window
          [lo..hi] (1-based, inclusive) — a fault {e storm} *)

type rule = { site : Fault.site; kind : Fault.kind; trigger : trigger }

type t

val create : ?seed:int -> rule list -> t
(** [create ~seed rules] builds a plan with its own fresh tally. *)

val none : unit -> t
(** The empty plan: {!draw} never fires.  Useful as an explicit
    "no faults" argument. *)

val is_active : t -> bool
(** [false] for {!none} (no rules) — fast-path guard for hot sites. *)

val draw : t -> Fault.site -> Fault.kind option
(** [draw plan site] advances the site's operation counter and returns
    the armed fault kind if some rule for [site] fires.  The first
    matching rule wins. *)

val peek : t -> Fault.site -> Fault.kind option
(** Like {!draw} for non-operation sites (crash-time decisions): does
    not advance the operation counter; [Always]/[On_op 1]/[Every 1]
    triggers fire, probabilistic ones consult the generator. *)

val rand_int : t -> int -> int
(** Uniform draw from the plan's private stream — sites use it to pick
    torn-write cut points and bit positions deterministically. *)

val tally : t -> Fault.tally

val note_injected : t -> code:string -> site:string -> string -> unit
val note_detected : t -> code:string -> site:string -> string -> unit
val note_retried : t -> backoff:float -> unit
val note_repaired : t -> code:string -> site:string -> string -> unit
val note_unrecoverable : t -> code:string -> site:string -> string -> unit

val event_counts : t -> (string * int) list
(** Events grouped by FAULT code, ascending code order. *)

val max_io_retries : int
(** Per-fault attempt cap shared by all instrumented sites
    ({!Mmdb_overload.Overload.Retry.max_attempts}: 3). *)

val retry_backoff : attempt:int -> float
(** Simulated-clock backoff before retry [attempt] (1-based): linear,
    [attempt * 1 ms] ({!Mmdb_overload.Overload.Retry.backoff}).
    @raise Invalid_argument if [attempt <= 0]. *)

val set_retry_budget : t -> Mmdb_overload.Overload.Retry.budget option -> unit
(** Install (or clear) a per-transaction retry budget.  Every device
    riding transients through this plan drains the same budget, so a
    transaction's retries are bounded across devices — previously each
    device counted alone. *)

val ride_transient :
  t ->
  site:string ->
  failures:int ->
  attempt:(attempt:int -> backoff:float -> unit) ->
  unit
(** Ride out an injected transient fault that fails [failures]
    consecutive attempts: notes the FAULT003 injection, then calls
    [attempt] once per failed try with its backoff (the caller charges
    the device and waits on its own clock) while noting each retry.
    @raise Fault.Io_error FAULT004 when [failures] exceeds
    {!max_io_retries}.
    @raise Mmdb_overload.Overload.Shed OVLD008 when the installed
    per-transaction retry budget runs dry mid-ride. *)

val of_spec : string -> (rule list, string) result
(** Parse a comma-separated list of the fault atoms the torture
    property draws from: ["torn-tail"], ["bitflip"], ["io-error"], ["battery-droop"],
    ["snapshot-rot"], ["media"], ["storm"], or ["none"].
    See {!spec_names}. *)

val spec_names : (string * string) list
(** The atoms {!of_spec} accepts, each with a one-line description. *)
