module D = Mmdb_util.Diag

let structure_diag ~code ~what ok =
  if ok then []
  else [ D.error ~code ~path:"$" (what ^ " invariant violated") ]

let btree t =
  structure_diag ~code:"IDX001" ~what:"B-tree"
    (Mmdb_index.Btree.check_invariants t)

let avl t =
  structure_diag ~code:"IDX002" ~what:"AVL" (Mmdb_index.Avl.check_invariants t)

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
  ]
