(** Source-level lint over [lib/]: one read, one parse per file, three
    rule families over each parsetree.  The passes walk the compiler's
    own parsetree ([compiler-libs]), so they see exactly what the
    type-checker sees.

    {b RACE} — module-level mutable state, the static half of the
    domain-safety gate (the dynamic half is {!Schedule_check}'s race
    codes).  Every top-level binding built by [ref],
    [Hashtbl]/[Buffer]/[Queue]/[Stack] creation or an [Array]/[Bytes]
    allocation, every top-level [lazy] and every shared global PRNG
    stream is inventoried:
    - [RACE101] unjustified top-level mutable value;
    - [RACE102] unjustified top-level [lazy];
    - [RACE103] shared global random generator (streams must be passed
      per-domain by value).
    A binding built on [Atomic.make] or [Mutex.create] is [Safe],
    reported under [RACE101], the rule that inventoried it.

    {b PERF} — accidentally super-linear idioms on per-operation paths:
    - [PERF101] list built by tail-append ([xs @ [x]]), flagged
      everywhere: cheap uses rot into hot ones;
    - [PERF102] [List.nth]/[List.length] under iteration — inside a
      [for]/[while] loop, an enclosing recursive function, or a
      traversal callback ([List.iter]-family argument);
    - [PERF103] polymorphic [compare]/[Hashtbl.hash] in the hot
      directories ([lib/exec], [lib/storage], [lib/index]);
    - [PERF104] non-tail self-recursion over list-structured data: a
      [let rec] that matches a [_ :: _] pattern and calls itself (or a
      group sibling) in value-consumed position;
    - [PERF105] string concatenation ([^]) under iteration.

    {b EXN} — whole-program exception flow.
    One summary per top-level binding (exceptions possibly raised, with
    handler subtraction; calls) is closed over the call graph (an
    unqualified name resolves into the enclosing module, a
    dotted one by its last two components after [module X = Path] alias
    expansion); the [.mli]s supply export lists and [@raise] lines:
    - [EXN101] a catch-all whose protected body can raise
      [Fault.Io_error], [Fault.Unrecoverable] or
      [Kv_store.Crashed_during_recovery] (a handler that re-raises its
      binding is exempt), or a [try lookup with Not_found -> e] over a
      lookup with a total [_opt] twin whose handler raises nothing;
    - [EXN102] an exception escaping an exported function of a module
      under [lib/storage], [lib/recovery], [lib/core], [lib/fault] or
      [lib/planner] whose [.mli] has no [@raise <Exn>] line for it
      (generic stdlib exceptions are exempt);
    - [EXN103] [List.hd]/[List.tl]/[Option.get] in a function reachable
      from a recovery/exec entry point (an exported function of a module
      under [lib/recovery] or [lib/exec]);
    - [EXN104] [raise v] of a handler-bound exception, which drops the
      original backtrace;
    - [EXN105] [failwith] reachable from a recovery/exec entry point.
    Lock pairing is checked dynamically, not here: {!Schedule_check}
    (TXN001–TXN005) audits every traced lock schedule.

    A file that does not parse yields [RACE100], [PERF100] and [EXN100];
    an interface that does not parse yields [EXN100].  The rest of the
    sweep still runs.

    {b Justification.}  Each family has its own marker — [race_check:],
    [perf_lint:], [exn_flow:] — written as a comment [(* marker why *)]
    on the flagged line or within the two lines above it (for a RACE
    binding, anywhere inside it too).  A marker of one family never
    justifies another family's finding.  Comments are not in the
    parsetree, so the match is textual. *)

type status =
  | Flagged
  | Justified of string  (** the justification comment's text *)
  | Safe of string  (** why, e.g. ["Atomic.make is domain-safe"] *)

type finding = {
  file : string;
  line : int;
  code : string;
  name : string;
      (** the binding (RACE), the enclosing binding (PERF), or the
          enclosing function as [Module.fn] (EXN) *)
  construct : string;  (** what was found, e.g. ["xs @ [x]"] *)
  status : status;
}

val analyze :
  (string * string) list -> finding list * Mmdb_util.Diag.t list
(** The three families over [(path, source)] pairs, [.ml] and [.mli]
    alike.  Findings are sorted by (file, line, code); the diagnostics
    are the parse failures. *)

val scan_lib : unit -> (finding list * Mmdb_util.Diag.t list, string) result
(** {!analyze} over every [.ml]/[.mli] under [root/lib], paths reported
    root-relative.  [root] is found by walking up from the current
    directory until a [dune-project] with a [lib/] sibling appears (a
    checkout or dune's sandbox alike); [Error] when there is none. *)

val diags_of_findings : finding list -> Mmdb_util.Diag.t list
(** One error per [Flagged] finding. *)

val pp_inventory : Format.formatter -> finding list -> unit
(** Every finding, one line each with its status. *)

val code_catalogue : (string * string) list
