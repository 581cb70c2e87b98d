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

let property ~name ~seed ~count gen holds =
  if count < 1 then invalid_arg (name ^ ": count < 1");
  (* Runs made while shrinking are not counted. *)
  let drawing = ref true in
  let handler _ _ = function
    | QCheck2.Test.Testing _ -> drawing := true
    | QCheck2.Test.Shrunk _ | QCheck2.Test.Shrinking _ -> drawing := false
    | QCheck2.Test.Generating | QCheck2.Test.Collecting _ -> ()
  in
  let cell =
    QCheck2.Test.make_cell ~count ~max_fail:1 ~name gen (fun c ->
        holds ~counted:!drawing c)
  in
  let result =
    QCheck2.Test.check_cell ~handler ~rand:(Random.State.make [| seed |]) cell
  in
  match QCheck2.TestResult.get_state result with
  | QCheck2.TestResult.Success -> None
  | QCheck2.TestResult.Failed { instances } ->
    List.nth_opt instances 0
    |> Option.map (fun i -> (i.QCheck2.TestResult.instance, None))
  | QCheck2.TestResult.Error { instance; exn; _ } ->
    Some (instance.QCheck2.TestResult.instance, Some exn)
  | QCheck2.TestResult.Failed_other { msg } -> failwith msg

let code_catalogue =
  [
    ("IDX001", "B-tree invariant violated");
    ("IDX002", "AVL invariant violated");
  ]
