module S = Mmdb_storage

let nil = -1

type t = {
  env : S.Env.t;
  schema : S.Schema.t;
  mutable tuples : bytes array;
  mutable left : int array;
  mutable right : int array;
  mutable allocated : int;
  mutable root : int;
  mutable count : int;
}

let create ~env ~schema () =
  {
    env;
    schema;
    tuples = [||];
    left = [||];
    right = [||];
    allocated = 0;
    root = nil;
    count = 0;
  }

let length t = t.count
let charge_comp t = S.Env.charge_comp t.env

let grow t =
  let cap = Array.length t.tuples in
  let ncap = if cap = 0 then 16 else 2 * cap in
  let nt = Array.make ncap Bytes.empty in
  let nl = Array.make ncap nil in
  let nr = Array.make ncap nil in
  Array.blit t.tuples 0 nt 0 cap;
  Array.blit t.left 0 nl 0 cap;
  Array.blit t.right 0 nr 0 cap;
  t.tuples <- nt;
  t.left <- nl;
  t.right <- nr

let alloc t tuple =
  if t.allocated = Array.length t.tuples then grow t;
  let s = t.allocated in
  t.allocated <- s + 1;
  t.tuples.(s) <- tuple;
  t.left.(s) <- nil;
  t.right.(s) <- nil;
  s

let height t =
  let rec go n =
    if n = nil then 0 else 1 + max (go t.left.(n)) (go t.right.(n))
  in
  go t.root

let insert t tuple =
  if Bytes.length tuple <> S.Schema.tuple_width t.schema then
    invalid_arg "Paged_bst.insert: tuple width mismatch";
  if t.root = nil then begin
    t.root <- alloc t tuple;
    t.count <- 1
  end
  else begin
    (* Iterative descent: no rebalancing ever happens. *)
    let n = ref t.root in
    let continue = ref true in
    while !continue do
      charge_comp t;
      let c = S.Tuple.compare_keys t.schema tuple t.tuples.(!n) in
      if c = 0 then begin
        t.tuples.(!n) <- tuple;
        continue := false
      end
      else if c < 0 then
        if t.left.(!n) = nil then begin
          t.left.(!n) <- alloc t tuple;
          t.count <- t.count + 1;
          continue := false
        end
        else n := t.left.(!n)
      else if t.right.(!n) = nil then begin
        t.right.(!n) <- alloc t tuple;
        t.count <- t.count + 1;
        continue := false
      end
      else n := t.right.(!n)
    done
  end

let search t key =
  let rec go n =
    if n = nil then None
    else begin
      charge_comp t;
      let c = S.Tuple.compare_key_to t.schema t.tuples.(n) key in
      if c = 0 then Some t.tuples.(n)
      else if c > 0 then go t.left.(n)
      else go t.right.(n)
    end
  in
  go t.root

let iter_in_order t f =
  (* Explicit stack: the degenerate (sorted-insertion) tree would blow the
     call stack with naive recursion. *)
  let stack = ref [] in
  let n = ref t.root in
  let continue = ref true in
  while !continue do
    if !n <> nil then begin
      stack := !n :: !stack;
      n := t.left.(!n)
    end
    else
      match !stack with
      | [] -> continue := false
      | top :: rest ->
        stack := rest;
        f t.tuples.(top);
        n := t.right.(top)
  done

let check_invariants t =
  let ok = ref true in
  let prev = ref None in
  iter_in_order t (fun tup ->
      (match !prev with
      | Some p -> if S.Tuple.compare_keys t.schema p tup >= 0 then ok := false
      | None -> ());
      prev := Some tup);
  let seen = ref 0 in
  iter_in_order t (fun _ -> incr seen);
  !ok && !seen = t.count
