(** Structured diagnostics for the verification layer ({!Mmdb_verify}).

    Every analyzer (plan checker, WAL auditor, buffer-pool sanitizer,
    structure invariant audit) reports findings as a flat list of [t]:
    a stable error code, a severity, a location path (into an expression
    tree, a log stream, or a pool), and a human-readable message.  Codes
    are stable across releases so tests and tooling can match on them. *)

type severity = Error | Warning

type t = {
  code : string;  (** stable identifier, e.g. ["PLAN002"] or ["LOG004"] *)
  severity : severity;
  path : string;
      (** location: ["$.input.left"] for expression trees, ["lsn=42 txn=7"]
          for log streams, ["pid=3"] for pool frames, or [""] *)
  message : string;
}

val error : code:string -> path:string -> string -> t
val warning : code:string -> path:string -> string -> t

val errors : t list -> t list
(** Just the [Error]-severity diagnostics. *)

val has_errors : t list -> bool

val has_code : string -> t list -> bool
(** [has_code c ds] is true when some diagnostic carries code [c]. *)

val pp : Format.formatter -> t -> unit
(** ["error[PLAN002] at $.input: unknown column \"salry\""]. *)

val pp_list : Format.formatter -> t list -> unit
(** One diagnostic per line; prints ["no diagnostics"] when empty. *)

val summary : t list -> string
(** ["2 errors, 1 warning"]. *)
