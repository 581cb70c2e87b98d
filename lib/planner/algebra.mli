(** Relational-algebra expressions — the input language of the Section 4
    planner. *)

type cmp_op = Eq | Ne | Lt | Le | Gt | Ge

type set_op = Mmdb_exec.Aggregate.set_op = Union | Intersect | Except

type predicate = {
  column : string;
  op : cmp_op;
  value : Mmdb_storage.Tuple.value;
}

type expr =
  | Scan of string  (** base relation by catalog name *)
  | Select of { input : expr; pred : predicate }
  | Project of { input : expr; columns : string list; distinct : bool }
  | Join of { left : expr; right : expr; left_key : string; right_key : string }
      (** equi-join on the named columns *)
  | Aggregate of {
      input : expr;
      group_by : string;
      aggs : Mmdb_exec.Aggregate.spec list;
    }
  | Order_by of { input : expr; column : string; descending : bool }
      (** final presentation sort — Section 4's point is that hash plans
          never need one {e internally} *)
  | Set_op of { op : set_op; left : expr; right : expr }
      (** distinct union/intersection/difference of byte-compatible
          inputs (Section 3.9's "other relational operations") *)

val scan : string -> expr
val select : column:string -> op:cmp_op -> value:Mmdb_storage.Tuple.value ->
  expr -> expr
val project : ?distinct:bool -> columns:string list -> expr -> expr
val join : left_key:string -> right_key:string -> expr -> expr -> expr
val aggregate : group_by:string -> aggs:Mmdb_exec.Aggregate.spec list ->
  expr -> expr

val order_by : ?descending:bool -> column:string -> expr -> expr
val set_op : set_op -> expr -> expr -> expr

val eval_predicate : Mmdb_storage.Schema.t -> predicate -> bytes -> bool
(** [eval_predicate schema pred] resolves [pred]'s column, offset and type
    once; the function it returns applies the predicate to an encoded
    tuple.
    @raise Invalid_argument on unknown column or type mismatch, when
    applied to [schema] and [pred]. *)

val base_relations : expr -> string list
(** Names of the base relations referenced, left-to-right, with
    duplicates. *)

val op_string : cmp_op -> string
(** SQL spelling: ["="], ["<>"], ["<"], ... *)

val value_string : Mmdb_storage.Tuple.value -> string
(** A literal as printed by {!pp}: integers bare, strings quoted. *)

val pp : Format.formatter -> expr -> unit
