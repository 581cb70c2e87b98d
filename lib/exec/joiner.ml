module S = Mmdb_storage

type algorithm =
  | Sort_merge_join
  | Simple_hash_join
  | Grace_hash_join
  | Hybrid_hash_join
  | Nested_loop_join

let all =
  [ Sort_merge_join; Simple_hash_join; Grace_hash_join; Hybrid_hash_join ]

let name = function
  | Sort_merge_join -> "sort-merge"
  | Simple_hash_join -> "simple"
  | Grace_hash_join -> "grace"
  | Hybrid_hash_join -> "hybrid"
  | Nested_loop_join -> "nested-loop"

let run algo ~mem_pages ~fudge r s emit =
  match algo with
  | Sort_merge_join -> Sort_merge.join ~mem_pages ~fudge r s emit
  | Simple_hash_join -> Simple_hash.join ~mem_pages ~fudge r s emit
  | Grace_hash_join -> Grace_hash.join ~mem_pages ~fudge r s emit
  | Hybrid_hash_join -> Hybrid_hash.join ~mem_pages ~fudge r s emit
  | Nested_loop_join -> Nested_loop.join r s emit

let run_measured algo ~mem_pages ~fudge r s =
  let env = S.Relation.env r in
  Op_stats.measure env (fun () ->
      run algo ~mem_pages ~fudge r s (fun _ _ -> ()))
