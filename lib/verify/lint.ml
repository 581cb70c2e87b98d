(* One lint sweep over lib/: each file is read and parsed once, and the
   parsetree goes to the three rule families (RACE, PERF, EXN).
   Only version-stable constructors are matched, and
   [Ast_iterator.default_iterator] walks everything else, so the sweep
   compiles across the CI compiler matrix. *)

module D = Mmdb_util.Diag
module SSet = Set.Make (String)

(* One parsed implementation: its path, its line array (index [i - 1]
   holds line [i]) for justification lookups, and its parsetree. *)
type parsed = {
  file : string;
  lines : string array;
  items : Parsetree.structure;
}

type status =
  | Flagged
  | Justified of string
  | Safe of string

type finding = {
  file : string;
  line : int;
  code : string;
  name : string;
  construct : string;
  status : status;
}

(* ------------------------------------------------------------------ *)
(* Shared helpers                                                      *)
(* ------------------------------------------------------------------ *)

(* The index just past the first [sub] in [s] (no Str in the image). *)
let find_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then None
    else if String.sub s i m = sub then Some (i + m)
    else go (i + 1)
  in
  go 0

let has_sub s sub = find_sub s sub <> None

let is_race code = String.starts_with ~prefix:"RACE" code

let marker_of code =
  if is_race code then "race_check:"
  else if String.starts_with ~prefix:"PERF" code then "perf_lint:"
  else "exn_flow:"

(* The text of a [(* <marker> why *)] comment inside the [lo .. hi]
   window or within the two lines above it. *)
let justification ~marker ~lines ~lo ~hi =
  let hi = min (Array.length lines) hi in
  let rec at i =
    if i > hi then None
    else
      let l = lines.(i - 1) in
      match find_sub l marker with
      | None -> at (i + 1)
      | Some j ->
        let rest = String.sub l j (String.length l - j) in
        (* trim the closing "*)" when the comment ends on this line *)
        Some
          (String.trim
             (match find_sub rest "*)" with
             | Some k -> String.sub rest 0 (k - 2)
             | None -> rest))
  in
  at (max 1 (lo - 2))

(* A rule hit, justified only by its own family's marker. *)
let judged ~file ~lines ~line ?(hi = line) ~code ~name construct =
  let status =
    match justification ~marker:(marker_of code) ~lines ~lo:line ~hi with
    | Some why -> Justified why
    | None -> Flagged
  in
  { file; line; code; name; construct; status }

let pattern_name (p : Parsetree.pattern) =
  match p.Parsetree.ppat_desc with
  | Parsetree.Ppat_var { txt; _ } -> txt
  | _ -> "_"

let ident_of (e : Parsetree.expression) =
  match e.Parsetree.pexp_desc with
  | Parsetree.Pexp_ident { txt; _ } ->
    Some (String.concat "." (Longident.flatten txt))
  | _ -> None

let line_of (e : Parsetree.expression) =
  e.Parsetree.pexp_loc.Location.loc_start.Lexing.pos_lnum

let end_line_of (e : Parsetree.expression) =
  e.Parsetree.pexp_loc.Location.loc_end.Lexing.pos_lnum

let module_of_file path =
  String.capitalize_ascii (Filename.remove_extension (Filename.basename path))

(* ------------------------------------------------------------------ *)
(* RACE: module-level bindings                                         *)
(* ------------------------------------------------------------------ *)

type shape =
  | Mutable_value of string  (* ref / Hashtbl.create / ... *)
  | Lazy_value
  | Rng_value of string  (* shared global generator *)
  | Safe_value of string  (* Atomic.make / Mutex.create *)
  | Plain

let rec classify_expr (e : Parsetree.expression) =
  match e.Parsetree.pexp_desc with
  | Parsetree.Pexp_constraint (inner, _) -> classify_expr inner
  | Parsetree.Pexp_lazy _ -> Lazy_value
  | Parsetree.Pexp_apply (f, _) -> (
    match f.Parsetree.pexp_desc with
    | Parsetree.Pexp_ident { txt; _ } -> (
      let path = Longident.flatten txt in
      let dotted = String.concat "." path in
      match path with
      | _ when List.exists (fun m -> m = "Xorshift") path ->
        Rng_value dotted
      | [ "ref" ] -> Mutable_value "ref"
      | [ m; "make" ] when m = "Atomic" -> Safe_value dotted
      | [ m; "create" ] when m = "Mutex" -> Safe_value dotted
      | [ m; "create" ]
        when m = "Hashtbl" || m = "Buffer" || m = "Queue" || m = "Stack" ->
        Mutable_value dotted
      | [ m; f ]
        when (m = "Array" || m = "Bytes")
             && (f = "make" || f = "create" || f = "init") ->
        Mutable_value dotted
      | _ -> Plain)
    | _ -> Plain)
  | _ -> Plain

let race_findings { file; lines; items } =
  let rec structure acc items = List.fold_left item acc items
  and item acc (si : Parsetree.structure_item) =
    match si.Parsetree.pstr_desc with
    | Parsetree.Pstr_value (_, vbs) -> List.fold_left binding acc vbs
    | Parsetree.Pstr_module mb -> module_binding acc mb
    | Parsetree.Pstr_recmodule mbs -> List.fold_left module_binding acc mbs
    | _ -> acc
  and module_binding acc (mb : Parsetree.module_binding) =
    match mb.Parsetree.pmb_expr.Parsetree.pmod_desc with
    | Parsetree.Pmod_structure items -> structure acc items
    | _ -> acc
  and binding acc (vb : Parsetree.value_binding) =
    let loc = vb.Parsetree.pvb_loc in
    let line = loc.Location.loc_start.Lexing.pos_lnum in
    let name = pattern_name vb.Parsetree.pvb_pat in
    let flag code construct =
      judged ~file ~lines ~line ~hi:loc.Location.loc_end.Lexing.pos_lnum
        ~code ~name construct
      :: acc
    in
    match classify_expr vb.Parsetree.pvb_expr with
    | Mutable_value c -> flag "RACE101" c
    | Lazy_value -> flag "RACE102" "lazy"
    | Rng_value c -> flag "RACE103" c
    | Safe_value c ->
      (* perf_lint: one-shot label per reported binding *)
      let status = Safe (c ^ " is domain-safe") in
      { file; line; code = "RACE101"; name; construct = c; status } :: acc
    | Plain -> acc
  in
  List.rev (structure [] items)

(* ------------------------------------------------------------------ *)
(* PERF: every expression                                              *)
(* ------------------------------------------------------------------ *)

(* PERF103 applies where polymorphic structural walks are per-operation
   costs. *)
let hot_dir file =
  has_sub file "exec/" || has_sub file "storage/" || has_sub file "index/"

(* A syntactic list literal: a cons chain of literal cells ending in
   [[]].  [xs @ [x]] parses as [(@) xs (x :: [])]. *)
let rec is_literal_list (e : Parsetree.expression) =
  match e.Parsetree.pexp_desc with
  | Parsetree.Pexp_construct ({ txt = Longident.Lident "[]"; _ }, None) ->
    true
  | Parsetree.Pexp_construct
      ({ txt = Longident.Lident "::"; _ }, Some payload) -> (
    match payload.Parsetree.pexp_desc with
    | Parsetree.Pexp_tuple [ _; tl ] -> is_literal_list tl
    | _ -> false)
  | _ -> false

(* Traversal callbacks: an argument of one of these runs once per
   element, so the argument subtree counts as "under iteration". *)
let iteration_fn name =
  match String.rindex_opt name '.' with
  | None -> false
  | Some i -> (
    match String.sub name (i + 1) (String.length name - i - 1) with
    | "iter" | "iteri" | "iter2" | "map" | "mapi" | "map2" | "rev_map"
    | "fold" | "fold_left" | "fold_right" | "filter" | "filteri"
    | "filter_map" | "concat_map" | "exists" | "for_all" | "find"
    | "find_opt" | "find_all" | "partition" | "sort" | "stable_sort"
    | "sort_uniq" ->
      true
    | _ -> false)

(* PERF104 bookkeeping: one scope per [let rec] binding group member,
   live while its group's bodies are scanned.  [base] records the
   consumed-position depth at the group's definition site, so a tail
   call inside e.g. an iterator callback that lexically *encloses* the
   whole definition is not mistaken for a non-tail self-call. *)
type rec_scope = {
  fname : string;
  base : int;
  mutable has_list_match : bool;
  mutable calls : (int * string) list;  (* (line, construct), newest first *)
}

let perf_findings { file; lines; items } =
  let in_hot_dir = hot_dir file in
  let findings = ref [] in
  let loop_depth = ref 0 in
  let consumed = ref 0 in
  let rec_scopes : rec_scope list ref = ref [] in
  let cur_name = ref "_" in
  let under_iteration () = !loop_depth > 0 || !rec_scopes <> [] in
  let emit ~line ~code ~construct =
    findings := judged ~file ~lines ~line ~code ~name:!cur_name construct
                :: !findings
  in
  let super = Ast_iterator.default_iterator in
  (* Rule checks fire at each node; context (loops, consumed position,
     recursive scopes) is mutable state saved/restored around the
     recursive visits. *)
  let rec expr it (e : Parsetree.expression) =
    match e.Parsetree.pexp_desc with
    | Parsetree.Pexp_ident { txt; _ } ->
      (match Longident.flatten txt with
      | ([ "compare" ] | [ "Stdlib"; "compare" ] | [ "Pervasives"; "compare" ])
        when in_hot_dir ->
        emit ~line:(line_of e) ~code:"PERF103" ~construct:"compare"
      | [ "Hashtbl"; "hash" ] when in_hot_dir ->
        emit ~line:(line_of e) ~code:"PERF103" ~construct:"Hashtbl.hash"
      | _ -> ());
      super.Ast_iterator.expr it e
    | Parsetree.Pexp_while _ | Parsetree.Pexp_for _ ->
      incr loop_depth;
      super.Ast_iterator.expr it e;
      decr loop_depth
    | Parsetree.Pexp_let (rf, vbs, body) ->
      bindings it ~recursive:(rf = Asttypes.Recursive) vbs;
      expr it body
    | Parsetree.Pexp_apply (f, args) ->
      (match ident_of f with
      | Some ("@" | "Stdlib.@" | "List.append") -> (
        match List.rev args with
        | (_, last) :: _ when is_literal_list last ->
          emit ~line:(line_of e) ~code:"PERF101" ~construct:"xs @ [x]"
        | _ -> ())
      | Some (("List.nth" | "List.nth_opt" | "List.length") as n)
        when under_iteration () ->
        emit ~line:(line_of e) ~code:"PERF102" ~construct:n
      | Some ("^" | "Stdlib.^") when under_iteration () ->
        emit ~line:(line_of e) ~code:"PERF105" ~construct:"s ^ t"
      | Some n -> (
        match List.find_opt (fun s -> s.fname = n) !rec_scopes with
        | Some s when !consumed > s.base ->
          s.calls <-
            (line_of e, Printf.sprintf "%s _ (non-tail)" n) :: s.calls
        | Some _ | None -> ())
      | _ -> ());
      expr it f;
      let iterated =
        match ident_of f with Some n -> iteration_fn n | None -> false
      in
      if iterated then incr loop_depth;
      incr consumed;
      (* perf_lint: AST recursion; depth is bounded by source nesting *)
      List.iter (fun (_, a) -> expr it a) args;
      decr consumed;
      if iterated then decr loop_depth
    | Parsetree.Pexp_construct (_, Some payload) ->
      incr consumed;
      expr it payload;
      decr consumed
    | _ -> super.Ast_iterator.expr it e
  (* A binding group: recursive groups open PERF104 scopes for every
     member (so mutual recursion is covered), flushed — gated on a
     [_ :: _] pattern appearing in a member body, i.e. recursion over
     list-structured data — when the group closes. *)
  and bindings it ~recursive vbs =
    let scan_vb (vb : Parsetree.value_binding) =
      let saved = !cur_name in
      let n = pattern_name vb.Parsetree.pvb_pat in
      if n <> "_" then cur_name := n;
      it.Ast_iterator.pat it vb.Parsetree.pvb_pat;
      expr it vb.Parsetree.pvb_expr;
      cur_name := saved
    in
    if not recursive then List.iter scan_vb vbs
    else begin
      let scopes =
        List.map
          (fun (vb : Parsetree.value_binding) ->
            {
              fname = pattern_name vb.Parsetree.pvb_pat;
              base = !consumed;
              has_list_match = false;
              calls = [];
            })
          vbs
      in
      let saved_scopes = !rec_scopes in
      rec_scopes := List.rev_append scopes saved_scopes;
      List.iter scan_vb vbs;
      rec_scopes := saved_scopes;
      List.iter
        (fun s ->
          if s.has_list_match then
            List.iter
              (fun (line, construct) -> emit ~line ~code:"PERF104" ~construct)
              (List.rev s.calls))
        scopes
    end
  in
  let pat it (p : Parsetree.pattern) =
    (match p.Parsetree.ppat_desc with
    | Parsetree.Ppat_construct ({ txt = Longident.Lident "::"; _ }, _) ->
      List.iter (fun s -> s.has_list_match <- true) !rec_scopes
    | _ -> ());
    super.Ast_iterator.pat it p
  in
  let structure_item it (si : Parsetree.structure_item) =
    match si.Parsetree.pstr_desc with
    | Parsetree.Pstr_value (rf, vbs) ->
      bindings it ~recursive:(rf = Asttypes.Recursive) vbs
    | _ -> super.Ast_iterator.structure_item it si
  in
  let it =
    {
      super with
      Ast_iterator.expr;
      Ast_iterator.pat;
      Ast_iterator.structure_item;
    }
  in
  it.Ast_iterator.structure it items;
  List.rev !findings

(* ------------------------------------------------------------------ *)
(* EXN: collection, one record per top-level binding                   *)
(* ------------------------------------------------------------------ *)

let fault_family = [ "Io_error"; "Unrecoverable"; "Crashed_during_recovery" ]

(* Stdlib exceptions a summary may carry but that no [.mli] is asked to
   document (EXN102 would otherwise demand [@raise Failure] on half the
   tree; EXN103/EXN105 own the partial/stringly cases). *)
let generic_exns =
  SSet.of_list
    [
      "Failure"; "Invalid_argument"; "Not_found"; "Exit"; "End_of_file";
      "Division_by_zero"; "Sys_error"; "Assert_failure"; "Match_failure";
      "Stack_overflow"; "Out_of_memory"; "Scan_failure"; "Undefined";
    ]

(* Partial lookups with a total [_opt] twin, for the EXN101 lookup leg. *)
let opt_lookups =
  [
    "Hashtbl.find"; "List.find"; "List.assoc"; "List.assq"; "Sys.getenv";
    "String.index"; "String.rindex";
  ]

let entry_dir file = has_sub file "recovery/" || has_sub file "exec/"

let declared_scope file =
  List.exists (has_sub file)
    [ "storage/"; "recovery/"; "core/"; "fault/"; "planner/" ]

(* A handler frame: the constructor names one [try]'s unguarded cases
   subtract from everything raised under it ("*" = a catch-all that
   does not re-raise).  Frames carry identity ([==]) so the EXN101
   check can ask "does the body raise, ignoring the frame under
   judgment?". *)
type frame = { fr_names : string list }

type rsite = { r_line : int; r_exn : string; r_frames : frame list }
type csite = { c_line : int; c_raw : string; c_frames : frame list }

type swallow_kind =
  | Catch_all of { body_lo : int; body_hi : int }
  | Lookup of { lookup : string; hand_lo : int; hand_hi : int }

type swallow = { w_line : int; w_frame : frame; w_kind : swallow_kind }

type fn = {
  f_module : string;
  f_name : string;
  f_file : string;
  f_line : int;
  mutable f_raises : rsite list;
  mutable f_calls : csite list;
  mutable f_partials : (int * string) list;
  mutable f_failwiths : int list;
  mutable f_swallows : swallow list;
  mutable f_reraises : (int * string) list;
  mutable f_summary : SSet.t;
}

let last_two raw =
  match List.rev (String.split_on_char '.' raw) with
  | a :: b :: _ -> b ^ "." ^ a
  | _ -> raw

let last_component raw =
  match List.rev (String.split_on_char '.' raw) with
  | a :: _ -> a
  | [] -> raw

(* The constructor names a handler case covers ("*" for a catch-all
   variable/wildcard); an unrecognized pattern covers nothing
   (conservative: the exception may still escape). *)
let rec case_names (p : Parsetree.pattern) =
  match p.Parsetree.ppat_desc with
  | Parsetree.Ppat_construct ({ txt; _ }, _) ->
    [ last_component (String.concat "." (Longident.flatten txt)) ]
  | Parsetree.Ppat_or (a, b) -> case_names a @ case_names b
  | Parsetree.Ppat_alias (inner, _) -> case_names inner
  | Parsetree.Ppat_var _ | Parsetree.Ppat_any -> [ "*" ]
  | _ -> []

let bound_var (p : Parsetree.pattern) =
  match p.Parsetree.ppat_desc with
  | Parsetree.Ppat_var { txt; _ } -> Some txt
  | Parsetree.Ppat_alias (_, { txt; _ }) -> Some txt
  | _ -> None

(* Does [rhs] re-raise the handler-bound variable [v] (by [raise],
   [raise_notrace] or [Printexc.raise_with_backtrace])? *)
let reraises_var v rhs =
  let found = ref false in
  let super = Ast_iterator.default_iterator in
  let expr it (e : Parsetree.expression) =
    (match e.Parsetree.pexp_desc with
    | Parsetree.Pexp_apply (f, (_, arg) :: _) -> (
      match (ident_of f, arg.Parsetree.pexp_desc) with
      | ( Some
            ( "raise" | "Stdlib.raise" | "raise_notrace"
            | "Stdlib.raise_notrace" | "Printexc.raise_with_backtrace" ),
          Parsetree.Pexp_ident { txt = Longident.Lident x; _ } )
        when x = v ->
        found := true
      | _ -> ())
    | _ -> ());
    super.Ast_iterator.expr it e
  in
  let it = { super with Ast_iterator.expr } in
  it.Ast_iterator.expr it rhs;
  !found

type collect_ctx = {
  cx_module : string;
  cx_file : string;
  cx_fns : (string, fn) Hashtbl.t;
  cx_declared : SSet.t ref;
  cx_aliases : (string, string) Hashtbl.t;
  mutable cx_cur : fn option;
  mutable cx_frames : frame list;
  mutable cx_caught : string list;
  mutable cx_anon : int;
}

let fresh_fn cx ~name ~line =
  let key =
    if name = "_" then begin
      cx.cx_anon <- cx.cx_anon + 1;
      Printf.sprintf "%s._init_%d" cx.cx_module cx.cx_anon
    end
    else cx.cx_module ^ "." ^ name
  in
  match Hashtbl.find_opt cx.cx_fns key with
  | Some f -> f
  | None ->
    let f =
      {
        f_module = cx.cx_module;
        f_name = name;
        f_file = cx.cx_file;
        f_line = line;
        f_raises = [];
        f_calls = [];
        f_partials = [];
        f_failwiths = [];
        f_swallows = [];
        f_reraises = [];
        f_summary = SSet.empty;
      }
    in
    Hashtbl.replace cx.cx_fns key f;
    f

let with_cur cx f k =
  match cx.cx_cur with
  | Some _ -> k ()  (* nested let: merge into the enclosing binding *)
  | None ->
    cx.cx_cur <- Some f;
    k ();
    cx.cx_cur <- None

let in_fn cx k =
  match cx.cx_cur with Some f -> k f | None -> ()

let normalize cx raw =
  match String.index_opt raw '.' with
  | None -> raw
  | Some i -> (
    let head = String.sub raw 0 i in
    match Hashtbl.find_opt cx.cx_aliases head with
    | Some expansion -> expansion ^ String.sub raw i (String.length raw - i)
    | None -> raw)

let record_raise cx ~line exn =
  in_fn cx (fun f ->
      f.f_raises <-
        { r_line = line; r_exn = exn; r_frames = cx.cx_frames } :: f.f_raises)

let record_call cx ~line raw =
  in_fn cx (fun f ->
      f.f_calls <-
        { c_line = line; c_raw = raw; c_frames = cx.cx_frames } :: f.f_calls)

let collect { file; items; _ } ~fns ~declared =
  let cx =
    {
      cx_module = module_of_file file;
      cx_file = file;
      cx_fns = fns;
      cx_declared = declared;
      cx_aliases = Hashtbl.create 8;
      cx_cur = None;
      cx_frames = [];
      cx_caught = [];
      cx_anon = 0;
    }
  in
  let super = Ast_iterator.default_iterator in
  let rec expr it (e : Parsetree.expression) =
    match e.Parsetree.pexp_desc with
    | Parsetree.Pexp_ident _ ->
      (match ident_of e with
      | Some raw -> record_call cx ~line:(line_of e) (normalize cx raw)
      | None -> ());
      super.Ast_iterator.expr it e
    | Parsetree.Pexp_apply (f, args) ->
      apply it e f args
    | Parsetree.Pexp_try (body, cases) ->
      handler it ~line:(line_of e) ~protected:[ body ] ~cases
        ~lookup_body:(Some body)
    | Parsetree.Pexp_match (scrut, cases)
      when List.exists
             (fun (c : Parsetree.case) ->
               match c.Parsetree.pc_lhs.Parsetree.ppat_desc with
               | Parsetree.Ppat_exception _ -> true
               | _ -> false)
             cases ->
      (* [match e with … | exception P -> …]: the exception cases guard
         the scrutinee only; value cases run unprotected. *)
      let exn_cases, value_cases =
        List.partition
          (fun (c : Parsetree.case) ->
            match c.Parsetree.pc_lhs.Parsetree.ppat_desc with
            | Parsetree.Ppat_exception _ -> true
            | _ -> false)
          cases
      in
      let exn_cases =
        List.map
          (fun (c : Parsetree.case) ->
            match c.Parsetree.pc_lhs.Parsetree.ppat_desc with
            | Parsetree.Ppat_exception p -> { c with Parsetree.pc_lhs = p }
            | _ -> c)
          exn_cases
      in
      handler it ~line:(line_of e) ~protected:[ scrut ] ~cases:exn_cases
        ~lookup_body:(Some scrut);
      (* perf_lint: AST recursion; depth bounded by source nesting *)
      List.iter (case it) value_cases
    | _ -> super.Ast_iterator.expr it e
  and apply it e f args =
    let line = line_of e in
    let raw = Option.map (normalize cx) (ident_of f) in
    (match raw with
    | None -> ()
    | Some raw -> (
      record_call cx ~line raw;
      (match raw with
      | "raise" | "Stdlib.raise" | "raise_notrace" | "Stdlib.raise_notrace"
      | "Printexc.raise_with_backtrace" -> (
        match args with
        | (_, arg) :: _ -> (
          match arg.Parsetree.pexp_desc with
          | Parsetree.Pexp_construct ({ txt; _ }, _) ->
            record_raise cx ~line
              (last_component (String.concat "." (Longident.flatten txt)))
          | Parsetree.Pexp_ident { txt = Longident.Lident v; _ }
            when List.mem v cx.cx_caught ->
            (* a re-raise: the summary frame logic already accounts for
               it; plain [raise v] additionally loses the backtrace *)
            if raw = "raise" || raw = "Stdlib.raise" then
              in_fn cx (fun fn -> fn.f_reraises <- (line, v) :: fn.f_reraises)
          | _ -> ())
        | [] -> ())
      | "failwith" | "Stdlib.failwith" ->
        record_raise cx ~line "Failure";
        in_fn cx (fun fn -> fn.f_failwiths <- line :: fn.f_failwiths)
      | "invalid_arg" | "Stdlib.invalid_arg" ->
        record_raise cx ~line "Invalid_argument"
      | _ -> ());
      match last_two raw with
      | ("List.hd" | "List.tl") as p ->
        record_raise cx ~line "Failure";
        in_fn cx (fun fn -> fn.f_partials <- (line, p) :: fn.f_partials)
      | "Option.get" ->
        record_raise cx ~line "Invalid_argument";
        in_fn cx (fun fn ->
            fn.f_partials <- (line, "Option.get") :: fn.f_partials)
      | _ -> ()));
    (match f.Parsetree.pexp_desc with
    | Parsetree.Pexp_ident _ -> ()  (* recorded above *)
    | _ -> expr it f);
    (* perf_lint: AST recursion; depth bounded by source nesting *)
    List.iter (fun (_, a) -> expr it a) args
  (* One [try]/[match-exception]: build the subtraction frame from the
     unguarded cases, classify swallow candidates, walk the protected
     expressions under the frame and the handler bodies outside it. *)
  and handler it ~line ~protected ~cases ~lookup_body =
    let unguarded =
      List.filter
        (fun (c : Parsetree.case) -> c.Parsetree.pc_guard = None)
        cases
    in
    let named =
      List.concat_map
        (fun (c : Parsetree.case) ->
          List.filter
            (fun n -> n <> "*")
            (case_names c.Parsetree.pc_lhs))
        unguarded
    in
    let catch_all =
      List.find_opt
        (fun (c : Parsetree.case) ->
          List.mem "*" (case_names c.Parsetree.pc_lhs))
        unguarded
    in
    let catch_all_swallows =
      match catch_all with
      | None -> false
      | Some c -> (
        match bound_var c.Parsetree.pc_lhs with
        | Some v -> not (reraises_var v c.Parsetree.pc_rhs)
        | None -> true (* [with _ ->] cannot re-raise *))
    in
    let frame =
      { fr_names = (if catch_all_swallows then "*" :: named else named) }
    in
    let body_lo =
      List.fold_left
        (fun acc b -> min acc (line_of b))
        max_int protected
    in
    let body_hi =
      List.fold_left (fun acc b -> max acc (end_line_of b)) 0 protected
    in
    (match (catch_all, catch_all_swallows) with
    | Some _, true ->
      in_fn cx (fun fn ->
          fn.f_swallows <-
            { w_line = line; w_frame = frame;
              w_kind = Catch_all { body_lo; body_hi } }
            :: fn.f_swallows)
    | _ -> ());
    (match (lookup_body, catch_all) with
    | Some body, None when List.mem "Not_found" frame.fr_names -> (
      let head =
        match body.Parsetree.pexp_desc with
        | Parsetree.Pexp_apply (hd, _) -> ident_of hd
        | _ -> None
      in
      match head with
      | Some raw when List.mem (last_two (normalize cx raw)) opt_lookups ->
        let nf_case =
          List.find_opt
            (fun (c : Parsetree.case) ->
              List.mem "Not_found" (case_names c.Parsetree.pc_lhs))
            unguarded
        in
        (match nf_case with
        | Some c ->
          in_fn cx (fun fn ->
              fn.f_swallows <-
                {
                  w_line = line;
                  w_frame = frame;
                  w_kind =
                    Lookup
                      {
                        lookup = last_two (normalize cx raw);
                        hand_lo = line_of c.Parsetree.pc_rhs;
                        hand_hi = end_line_of c.Parsetree.pc_rhs;
                      };
                }
                :: fn.f_swallows)
        | None -> ())
      | _ -> ())
    | _ -> ());
    let saved = cx.cx_frames in
    cx.cx_frames <- frame :: saved;
    (* perf_lint: AST recursion; depth bounded by source nesting *)
    List.iter (expr it) protected;
    cx.cx_frames <- saved;
    (* perf_lint: AST recursion; depth bounded by source nesting *)
    List.iter (case it) cases
  and case it (c : Parsetree.case) =
    let saved = cx.cx_caught in
    (match bound_var c.Parsetree.pc_lhs with
    | Some v -> cx.cx_caught <- v :: saved
    | None -> ());
    it.Ast_iterator.pat it c.Parsetree.pc_lhs;
    (* perf_lint: AST recursion; depth bounded by source nesting *)
    Option.iter (expr it) c.Parsetree.pc_guard;
    expr it c.Parsetree.pc_rhs;
    cx.cx_caught <- saved
  in
  let value_binding it (vb : Parsetree.value_binding) =
    match cx.cx_cur with
    | Some _ -> super.Ast_iterator.value_binding it vb
    | None ->
      let name = pattern_name vb.Parsetree.pvb_pat in
      let line =
        vb.Parsetree.pvb_loc.Location.loc_start.Lexing.pos_lnum
      in
      let f = fresh_fn cx ~name ~line in
      with_cur cx f (fun () -> super.Ast_iterator.value_binding it vb)
  in
  let structure_item it (si : Parsetree.structure_item) =
    match si.Parsetree.pstr_desc with
    | Parsetree.Pstr_module mb ->
      (match
         (mb.Parsetree.pmb_name.Asttypes.txt,
          mb.Parsetree.pmb_expr.Parsetree.pmod_desc)
       with
      | Some name, Parsetree.Pmod_ident { txt; _ } ->
        Hashtbl.replace cx.cx_aliases name
          (String.concat "." (Longident.flatten txt))
      | _ -> ());
      super.Ast_iterator.structure_item it si
    | Parsetree.Pstr_exception te ->
      cx.cx_declared :=
        SSet.add
          te.Parsetree.ptyexn_constructor.Parsetree.pext_name.Asttypes.txt
          !(cx.cx_declared);
      super.Ast_iterator.structure_item it si
    | _ -> super.Ast_iterator.structure_item it si
  in
  let it =
    {
      super with
      Ast_iterator.expr;
      Ast_iterator.case;
      Ast_iterator.value_binding;
      Ast_iterator.structure_item;
    }
  in
  it.Ast_iterator.structure it items

(* ------------------------------------------------------------------ *)
(* EXN: whole-program analysis                                         *)
(* ------------------------------------------------------------------ *)

let survives frames e =
  List.for_all
    (fun fr -> not (List.mem "*" fr.fr_names || List.mem e fr.fr_names))
    frames

let resolve fns ~cur_module raw =
  if String.contains raw '.' then
    let k = last_two raw in
    if Hashtbl.mem fns k then Some k else None
  else
    let k = cur_module ^ "." ^ raw in
    if Hashtbl.mem fns k then Some k else None

let fixpoint fns keys =
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun k ->
        let f = Hashtbl.find fns k in
        let s =
          List.fold_left
            (fun acc (r : rsite) ->
              if survives r.r_frames r.r_exn then SSet.add r.r_exn acc
              else acc)
            SSet.empty f.f_raises
        in
        let s =
          List.fold_left
            (fun acc (c : csite) ->
              match resolve fns ~cur_module:f.f_module c.c_raw with
              | None -> acc
              | Some k' ->
                let g = Hashtbl.find fns k' in
                SSet.fold
                  (fun e acc ->
                    if survives c.c_frames e then SSet.add e acc else acc)
                  g.f_summary acc)
            s f.f_calls
        in
        if not (SSet.equal s f.f_summary) then begin
          f.f_summary <- s;
          changed := true
        end)
      keys
  done

(* Entry points: the exported functions (all top-level bindings when a
   module has no [.mli]) of modules under lib/recovery and lib/exec —
   the surfaces the torture/recovery harness drives. *)
let entry_points fns keys mli_tbl =
  List.filter
    (fun k ->
      let f = Hashtbl.find fns k in
      f.f_name <> "_"
      && entry_dir f.f_file
      &&
      match Hashtbl.find_opt mli_tbl f.f_module with
      | Some (_, _, exports) -> List.mem f.f_name exports
      | None -> true)
    keys

let reachable fns entries =
  let witness = Hashtbl.create 64 in
  let rec visit entry k =
    if not (Hashtbl.mem witness k) then begin
      Hashtbl.replace witness k entry;
      match Hashtbl.find_opt fns k with
      | None -> ()
      | Some f ->
        List.iter
          (fun (c : csite) ->
            match resolve fns ~cur_module:f.f_module c.c_raw with
            | Some k' -> visit entry k'
            | None -> ())
          f.f_calls
    end
  in
  List.iter (fun e -> visit e e) entries;
  witness

(* [units] are the parsed implementations; [sigs] the parsed interfaces
   as (path, line array, signature). *)
let exn_findings units sigs =
  let fns : (string, fn) Hashtbl.t = Hashtbl.create 512 in
  let declared = ref SSet.empty in
  let file_lines = Hashtbl.create 64 in
  List.iter
    (fun (u : parsed) ->
      Hashtbl.replace file_lines u.file u.lines;
      collect u ~fns ~declared)
    units;
  (* module -> (mli path, mli lines, exported val names); only top-level
     [val]s, so values exported through nested module signatures keep
     their own module path and are resolved (or dropped) by name *)
  let mli_tbl = Hashtbl.create 32 in
  List.iter
    (fun (file, lines, items) ->
      let exports =
        List.filter_map
          (fun (si : Parsetree.signature_item) ->
            match si.Parsetree.psig_desc with
            | Parsetree.Psig_value vd ->
              Some vd.Parsetree.pval_name.Asttypes.txt
            | _ -> None)
          items
      in
      Hashtbl.replace mli_tbl (module_of_file file) (file, lines, exports))
    sigs;
  let keys =
    List.sort String.compare (Hashtbl.fold (fun k _ acc -> k :: acc) fns [])
  in
  fixpoint fns keys;
  let witness = reachable fns (entry_points fns keys mli_tbl) in
  let interesting e =
    (not (SSet.mem e generic_exns))
    && (SSet.mem e !declared || List.mem e fault_family)
  in
  let findings = ref [] in
  let emit ~file ~line ~code ~name construct =
    let lines =
      Option.value ~default:[||] (Hashtbl.find_opt file_lines file)
    in
    findings := judged ~file ~lines ~line ~code ~name construct :: !findings
  in
  let summary_of_call (f : fn) (c : csite) =
    match resolve fns ~cur_module:f.f_module c.c_raw with
    | None -> SSet.empty
    | Some k -> (Hashtbl.find fns k).f_summary
  in
  List.iter
    (fun k ->
      let f = Hashtbl.find fns k in
      let emit ~line ~code construct =
        emit ~file:f.f_file ~line ~code ~name:k construct
      in
      (* EXN101: swallowing handlers *)
      List.iter
        (fun w ->
          match w.w_kind with
          | Catch_all { body_lo; body_hi } ->
            let minus_self frames =
              List.filter (fun fr -> not (fr == w.w_frame)) frames
            in
            let escapes =
              List.fold_left
                (fun acc (r : rsite) ->
                  if
                    r.r_line >= body_lo && r.r_line <= body_hi
                    && List.mem r.r_exn fault_family
                    && survives (minus_self r.r_frames) r.r_exn
                  then SSet.add r.r_exn acc
                  else acc)
                SSet.empty f.f_raises
            in
            let escapes =
              List.fold_left
                (fun acc (c : csite) ->
                  if c.c_line >= body_lo && c.c_line <= body_hi then
                    SSet.fold
                      (fun e acc ->
                        if
                          List.mem e fault_family
                          && survives (minus_self c.c_frames) e
                        then SSet.add e acc
                        else acc)
                      (summary_of_call f c) acc
                  else acc)
                escapes f.f_calls
            in
            if not (SSet.is_empty escapes) then
              emit ~line:w.w_line ~code:"EXN101"
                (Printf.sprintf "catch-all swallows %s"
                   (String.concat ", " (SSet.elements escapes)))
          | Lookup { lookup; hand_lo; hand_hi } ->
            let handler_raises =
              List.exists
                (fun (r : rsite) ->
                  r.r_line >= hand_lo && r.r_line <= hand_hi)
                f.f_raises
              || List.exists
                   (fun (c : csite) ->
                     c.c_line >= hand_lo && c.c_line <= hand_hi
                     && not (SSet.is_empty (summary_of_call f c)))
                   f.f_calls
            in
            if not handler_raises then
              emit ~line:w.w_line ~code:"EXN101"
                (Printf.sprintf "try %s with Not_found (use %s_opt)" lookup
                   lookup))
        f.f_swallows;
      (* EXN104: backtrace-dropping re-raise *)
      List.iter
        (fun (line, v) ->
          emit ~line ~code:"EXN104"
            (Printf.sprintf "raise %s (backtrace lost)" v))
        (List.sort compare f.f_reraises);
      (* EXN103 / EXN105: partial & stringly sites on live paths *)
      (match Hashtbl.find_opt witness k with
      | None -> ()
      | Some entry ->
        List.iter
          (fun (line, p) ->
            emit ~line ~code:"EXN103"
              (Printf.sprintf "%s (reachable from %s)" p entry))
          (List.sort compare f.f_partials);
        List.iter
          (fun line ->
            emit ~line ~code:"EXN105"
              (Printf.sprintf "failwith (reachable from %s)" entry))
          (List.sort compare f.f_failwiths)))
    keys;
  (* EXN102: undeclared exception escape of an exported API, one
     finding per (module, exception), anchored at the first offending
     exported function. *)
  let exn102 = Hashtbl.create 16 in
  List.iter
    (fun k ->
      let f = Hashtbl.find fns k in
      if f.f_name <> "_" && declared_scope f.f_file then
        match Hashtbl.find_opt mli_tbl f.f_module with
        | Some (mli_path, mli_lines, exports) when List.mem f.f_name exports ->
          SSet.iter
            (fun e ->
              if interesting e then begin
                let declares =
                  Array.exists
                    (fun l -> has_sub l "@raise" && has_sub l e)
                    mli_lines
                in
                if not declares then
                  (* perf_lint: two short names, once per escaping exn *)
                  let key = f.f_module ^ "/" ^ e in
                  match Hashtbl.find_opt exn102 key with
                  | Some (_, _, line, _) when line <= f.f_line -> ()
                  | _ ->
                    Hashtbl.replace exn102 key (f, e, f.f_line, mli_path)
              end)
            f.f_summary
        | _ -> ())
    keys;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) exn102 []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  |> List.iter (fun (_, ((f : fn), e, line, mli_path)) ->
         emit ~file:f.f_file ~line ~code:"EXN102"
           (* perf_lint: two short names, once per EXN102 finding *)
           ~name:(f.f_module ^ "." ^ f.f_name)
           (Printf.sprintf "%s escapes %s.%s (no @raise in %s)" e
              f.f_module f.f_name mli_path));
  !findings

(* ------------------------------------------------------------------ *)
(* The sweep                                                           *)
(* ------------------------------------------------------------------ *)

let parse parser ~file source =
  let lexbuf = Lexing.from_string source in
  Lexing.set_filename lexbuf file;
  match parser lexbuf with items -> Some items | exception _ -> None

let lines_of_source source = Array.of_list (String.split_on_char '\n' source)

let compare_findings a b =
  match String.compare a.file b.file with
  | 0 -> (
    match Int.compare a.line b.line with
    | 0 -> String.compare a.code b.code
    | c -> c)
  | c -> c

let analyze sources =
  let mlis, mls =
    List.partition (fun (f, _) -> Filename.check_suffix f ".mli") sources
  in
  let diags = ref [] in
  let unparsed file code msg =
    diags := D.error ~code ~path:file msg :: !diags
  in
  let units =
    List.filter_map
      (fun (file, source) ->
        match parse Parse.implementation ~file source with
        | Some items -> Some { file; lines = lines_of_source source; items }
        | None ->
          unparsed file "RACE100"
            "source failed to parse (lint could not inventory this file)";
          unparsed file "PERF100"
            "source failed to parse (perf lint could not scan this file)";
          unparsed file "EXN100"
            "source failed to parse (exception-flow scan incomplete)";
          None)
      mls
  in
  let sigs =
    List.filter_map
      (fun (file, source) ->
        match parse Parse.interface ~file source with
        | Some items -> Some (file, lines_of_source source, items)
        | None ->
          unparsed file "EXN100"
            "interface failed to parse (exception-flow scan incomplete)";
          None)
      mlis
  in
  let per_file =
    List.concat_map (fun u -> race_findings u @ perf_findings u) units
  in
  ( List.stable_sort compare_findings (per_file @ exn_findings units sigs),
    List.rev !diags )

(* Walk up from the current directory until a directory holding both
   [dune-project] and [lib/] appears: the sweep runs both from the
   repository root and from inside dune's sandbox. *)
let find_root () =
  let rec up dir n =
    if n > 6 then None
    else if
      Sys.file_exists (Filename.concat dir "dune-project")
      && Sys.file_exists (Filename.concat dir "lib")
      && Sys.is_directory (Filename.concat dir "lib")
    then Some dir
    else
      let parent = Filename.dirname dir in
      if parent = dir then None else up parent (n + 1)
  in
  up (Sys.getcwd ()) 0

(* Every [.ml] and [.mli] under [dir], sorted depth-first so sweeps are
   deterministic; accumulator-built, with no tail-appends. *)
let source_files dir =
  let rec walk acc dir =
    match Sys.readdir dir with
    | entries ->
      Array.sort String.compare entries;
      Array.fold_left
        (fun acc e ->
          let p = Filename.concat dir e in
          if Sys.is_directory p then walk acc p
          else if
            Filename.check_suffix e ".ml" || Filename.check_suffix e ".mli"
          then p :: acc
          else acc)
        acc entries
    | exception Sys_error _ -> acc
  in
  List.rev (walk [] dir)

let scan_lib () =
  match find_root () with
  | None -> Error "could not locate lib/ (no dune-project found)"
  | Some r ->
    (* report root-relative paths, stable across checkouts and sandboxes *)
    let pre = r ^ Filename.dir_sep in
    let n = String.length pre in
    let relative f =
      if String.length f > n && String.sub f 0 n = pre then
        String.sub f n (String.length f - n)
      else f
    in
    let read f =
      (relative f, In_channel.with_open_bin f In_channel.input_all)
    in
    Ok (analyze (List.map read (source_files (Filename.concat r "lib"))))

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)
(* ------------------------------------------------------------------ *)

let code_catalogue =
  [
    ("RACE100", "source failed to parse; lint inventory incomplete");
    ( "RACE101",
      "unjustified top-level mutable value (ref/Hashtbl/Buffer/Queue/Array)"
    );
    ("RACE102", "unjustified top-level lazy value");
    ("RACE103", "shared global random generator (must be per-domain)");
    ("PERF100", "source failed to parse; perf lint scan incomplete");
    ("PERF101", "list built by tail-append (xs @ [x]); quadratic under accumulation");
    ("PERF102", "List.nth/List.length under iteration (O(n) per step)");
    ("PERF103", "polymorphic compare/Hashtbl.hash on a hot path (exec/storage/index)");
    ("PERF104", "non-tail self-recursion over list-structured data");
    ("PERF105", "string concatenation (^) under iteration");
    ("EXN100", "source failed to parse; exception-flow scan incomplete");
    ("EXN101", "catch-all handler can swallow a fault-family exception (or partial lookup with a total _opt variant)");
    ("EXN102", "exception escapes an exported API with no @raise declaration in the .mli");
    ("EXN103", "partial stdlib call (List.hd/List.tl/Option.get) reachable from a recovery/exec entry point");
    ("EXN104", "re-raise by plain raise drops the original backtrace");
    ("EXN105", "failwith reachable from a recovery/exec entry point (untyped Failure)");
  ]

(* A flagged finding's message leads with its code's catalogue meaning. *)
let diags_of_findings fs =
  let describe code = List.assoc code code_catalogue in
  List.filter_map
    (fun f ->
      match f.status with
      | Flagged ->
        let path = Printf.sprintf "%s:%d" f.file f.line in
        Some
          (D.error ~code:f.code ~path
             (if is_race f.code then
                Printf.sprintf
                  "%s: `%s' (%s) — wrap in Atomic/Mutex, make it \
                   per-domain, or justify with a (* %s ... *) comment"
                  (describe f.code) f.name f.construct (marker_of f.code)
              else
                Printf.sprintf
                  "%s: `%s' in %s — fix it or justify with a (* %s ... *) \
                   comment"
                  (describe f.code) f.construct f.name (marker_of f.code)))
      | Justified _ | Safe _ -> None)
    fs

let status_label f =
  match f.status with
  | Flagged -> "FLAGGED " ^ f.code
  | Justified why -> "justified: " ^ why
  | Safe why -> "safe: " ^ why

let pp_inventory ppf fs =
  if fs = [] then Format.fprintf ppf "no findings@."
  else
    List.iter
      (fun f ->
        Format.fprintf ppf "%-34s %-44s %s@."
          (Printf.sprintf "%s:%d" f.file f.line)
          (Printf.sprintf "%s in %s" f.construct f.name)
          (status_label f))
      fs
