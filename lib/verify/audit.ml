module D = Mmdb_util.Diag

type component =
  | Btree of string * Mmdb_index.Btree.t
  | Avl of string * Mmdb_index.Avl.t
  | Paged_bst of string * Mmdb_index.Paged_bst.t
  | Heap_check of string * (unit -> bool)
  | Pool of { name : string; pool : Mmdb_storage.Buffer_pool.t;
              expect_unpinned : bool }
  | Log of { name : string; complete : bool;
             records : Mmdb_recovery.Log_record.t list }
  | Plan of { name : string; catalog : Mmdb_planner.Catalog.t;
              expr : Mmdb_planner.Algebra.expr }
  | Schedule of { name : string;
                  events : Mmdb_recovery.Schedule.event list;
                  log : Mmdb_recovery.Log_record.t list }
  | Model of { name : string; check : unit -> Mmdb_util.Diag.t list }

let structure_diag ~code ~what ok =
  if ok then []
  else [ D.error ~code ~path:"$" (what ^ " invariant violated") ]

let run = function
  | Btree (_, t) ->
    structure_diag ~code:"IDX001" ~what:"B-tree"
      (Mmdb_index.Btree.check_invariants t)
  | Avl (_, t) ->
    structure_diag ~code:"IDX002" ~what:"AVL"
      (Mmdb_index.Avl.check_invariants t)
  | Paged_bst (_, t) ->
    structure_diag ~code:"IDX003" ~what:"paged BST"
      (Mmdb_index.Paged_bst.check_invariants t)
  | Heap_check (_, check) ->
    structure_diag ~code:"IDX004" ~what:"heap" (check ())
  | Pool { pool; expect_unpinned; _ } -> Pool_check.audit ~expect_unpinned pool
  | Log { complete; records; _ } -> Log_check.audit ~complete records
  | Plan { catalog; expr; _ } -> Mmdb_planner.Plan_check.check catalog expr
  | Schedule { events; log; _ } -> Schedule_check.audit ~log events
  | Model { check; _ } -> check ()

let name_of = function
  | Btree (n, _) | Avl (n, _) | Paged_bst (n, _) | Heap_check (n, _) -> n
  | Pool { name; _ } | Log { name; _ } | Plan { name; _ }
  | Schedule { name; _ } | Model { name; _ } -> name

let run_all components = List.map (fun c -> (name_of c, run c)) components

let ok components =
  List.for_all (fun c -> not (D.has_errors (run c))) components

let report ppf results =
  let all_clean = ref true in
  List.iter
    (fun (name, diags) ->
      if diags = [] then Format.fprintf ppf "%-24s ok@." name
      else begin
        if D.has_errors diags then all_clean := false;
        Format.fprintf ppf "%-24s %s@." name (D.summary diags);
        List.iter (fun d -> Format.fprintf ppf "  %a@." D.pp d) diags
      end)
    results;
  let total = List.concat_map snd results in
  Format.fprintf ppf "audit: %d component%s, %s@." (List.length results)
    (if List.length results = 1 then "" else "s")
    (D.summary total);
  !all_clean

let code_catalogue =
  [
    ("IDX001", "B-tree invariant violated");
    ("IDX002", "AVL invariant violated");
    ("IDX003", "paged BST invariant violated");
    ("IDX004", "heap property violated");
  ]
