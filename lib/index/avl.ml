module S = Mmdb_storage

let nil = -1

type t = {
  env : S.Env.t;
  schema : S.Schema.t;
  mutable tuples : bytes array;
  mutable left : int array;
  mutable right : int array;
  mutable heights : int array;
  mutable allocated : int;
  mutable root : int;
  mutable count : int;
  mutable visit : (int -> unit) option;
}

let create ~env ~schema () =
  {
    env;
    schema;
    tuples = [||];
    left = [||];
    right = [||];
    heights = [||];
    allocated = 0;
    root = nil;
    count = 0;
    visit = None;
  }

let schema t = t.schema
let length t = t.count
let node_count t = t.allocated
let set_visit_hook t hook = t.visit <- hook

let touch t n = match t.visit with Some f -> f n | None -> ()

(* An AVL comparison costs comp: Section 2's Y taken as 1. *)
let charge_comp t =
  t.env.S.Env.counters.S.Counters.comparisons <-
    t.env.S.Env.counters.S.Counters.comparisons + 1;
  S.Sim_clock.advance t.env.S.Env.clock t.env.S.Env.cost.S.Cost.comp

let h t n = if n = nil then 0 else t.heights.(n)

let update_height t n =
  t.heights.(n) <- 1 + max (h t t.left.(n)) (h t t.right.(n))

let balance_factor t n = h t t.left.(n) - h t t.right.(n)

let height t = h t t.root

let grow t =
  let cap = Array.length t.tuples in
  let ncap = if cap = 0 then 16 else 2 * cap in
  let nt = Array.make ncap Bytes.empty in
  let nl = Array.make ncap nil in
  let nr = Array.make ncap nil in
  let nh = Array.make ncap 0 in
  Array.blit t.tuples 0 nt 0 cap;
  Array.blit t.left 0 nl 0 cap;
  Array.blit t.right 0 nr 0 cap;
  Array.blit t.heights 0 nh 0 cap;
  t.tuples <- nt;
  t.left <- nl;
  t.right <- nr;
  t.heights <- nh

let alloc_node t tuple =
  if t.allocated = Array.length t.tuples then grow t;
  let slot = t.allocated in
  t.allocated <- slot + 1;
  t.tuples.(slot) <- tuple;
  t.left.(slot) <- nil;
  t.right.(slot) <- nil;
  t.heights.(slot) <- 1;
  slot

let rotate_right t n =
  let l = t.left.(n) in
  t.left.(n) <- t.right.(l);
  t.right.(l) <- n;
  update_height t n;
  update_height t l;
  l

let rotate_left t n =
  let r = t.right.(n) in
  t.right.(n) <- t.left.(r);
  t.left.(r) <- n;
  update_height t n;
  update_height t r;
  r

let rebalance t n =
  update_height t n;
  let bf = balance_factor t n in
  if bf > 1 then begin
    if balance_factor t t.left.(n) < 0 then t.left.(n) <- rotate_left t t.left.(n);
    rotate_right t n
  end
  else if bf < -1 then begin
    if balance_factor t t.right.(n) > 0 then
      t.right.(n) <- rotate_right t t.right.(n);
    rotate_left t n
  end
  else n

let insert t tuple =
  if Bytes.length tuple <> S.Schema.tuple_width t.schema then
    invalid_arg "Avl.insert: tuple width mismatch";
  let rec ins n =
    if n = nil then begin
      t.count <- t.count + 1;
      alloc_node t tuple
    end
    else begin
      touch t n;
      charge_comp t;
      let c = S.Tuple.compare_keys t.schema tuple t.tuples.(n) in
      if c = 0 then begin
        t.tuples.(n) <- tuple;
        n
      end
      else begin
        if c < 0 then t.left.(n) <- ins t.left.(n)
        else t.right.(n) <- ins t.right.(n);
        rebalance t n
      end
    end
  in
  t.root <- ins t.root

let search t key =
  let rec go n =
    if n = nil then None
    else begin
      touch t n;
      charge_comp t;
      let c = S.Tuple.compare_key_to t.schema t.tuples.(n) key in
      if c = 0 then Some t.tuples.(n)
      else if c > 0 then go t.left.(n)
      else go t.right.(n)
    end
  in
  go t.root

let iter_in_order t f =
  let rec go n =
    if n <> nil then begin
      go t.left.(n);
      f t.tuples.(n);
      go t.right.(n)
    end
  in
  go t.root

let range_scan t ~lo ~hi f =
  let rec go node =
    if node <> nil then begin
      touch t node;
      charge_comp t;
      let c_lo = S.Tuple.compare_key_to t.schema t.tuples.(node) lo in
      charge_comp t;
      let c_hi = S.Tuple.compare_key_to t.schema t.tuples.(node) hi in
      if c_lo > 0 then go t.left.(node);
      if c_lo >= 0 && c_hi <= 0 then f t.tuples.(node);
      if c_hi < 0 then go t.right.(node)
    end
  in
  go t.root

let check_invariants t =
  let ok = ref true in
  let rec check n =
    if n = nil then 0
    else begin
      let hl = check t.left.(n) in
      let hr = check t.right.(n) in
      if abs (hl - hr) > 1 then ok := false;
      let expect = 1 + max hl hr in
      if t.heights.(n) <> expect then ok := false;
      expect
    end
  in
  ignore (check t.root);
  (* In-order keys strictly ascending. *)
  let prev = ref None in
  iter_in_order t (fun tup ->
      (match !prev with
      | Some p -> if S.Tuple.compare_keys t.schema p tup >= 0 then ok := false
      | None -> ());
      prev := Some tup);
  !ok
