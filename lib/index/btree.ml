module S = Mmdb_storage

let nil = -1

type leaf = {
  tuples : bytes array; (* capacity lcap + 1 (transient overflow) *)
  mutable ln : int;
  mutable next : int;
}

type internal = {
  keys : bytes array; (* capacity fanout (transient overflow) *)
  mutable kn : int; (* number of separator keys; children = kn + 1 *)
  children : int array; (* capacity fanout + 1 *)
}

type node = Leaf of leaf | Internal of internal | Free

type t = {
  env : S.Env.t;
  schema : S.Schema.t;
  fanout : int; (* max children of an internal node *)
  lcap : int; (* max tuples per leaf *)
  mutable nodes : node array;
  mutable allocated : int;
  mutable root : int;
  mutable count : int;
  mutable first_leaf : int;
  mutable visit : (int -> unit) option;
}

let schema t = t.schema
let length t = t.count
let fanout t = t.fanout
let leaf_capacity t = t.lcap
let set_visit_hook t hook = t.visit <- hook
let touch t n = match t.visit with Some f -> f n | None -> ()
let charge_comp t = S.Env.charge_comp t.env

let node t n =
  match t.nodes.(n) with
  | Free -> invalid_arg "Btree: access to freed node"
  | nd -> nd

let grow t =
  let cap = Array.length t.nodes in
  let ncap = if cap = 0 then 16 else 2 * cap in
  let nn = Array.make ncap Free in
  Array.blit t.nodes 0 nn 0 cap;
  t.nodes <- nn

let alloc t nd =
  if t.allocated = Array.length t.nodes then grow t;
  let slot = t.allocated in
  t.allocated <- slot + 1;
  t.nodes.(slot) <- nd;
  slot

let new_leaf t =
  alloc t
    (Leaf { tuples = Array.make (t.lcap + 1) Bytes.empty; ln = 0; next = nil })

let new_internal t =
  alloc t
    (Internal
       {
         keys = Array.make t.fanout Bytes.empty;
         kn = 0;
         children = Array.make (t.fanout + 1) nil;
       })

(* The paper's [s]: bytes per child pointer. *)
let pointer_width = 4

let create ~env ~schema ?(page_size = 4096) () =
  let k = S.Schema.key_width schema in
  let tw = S.Schema.tuple_width schema in
  let fanout = page_size / (k + pointer_width) in
  let lcap = (page_size - S.Page.header_size) / tw in
  if fanout < 3 then invalid_arg "Btree.create: fanout below 3";
  if lcap < 2 then invalid_arg "Btree.create: leaf capacity below 2";
  let t =
    {
      env;
      schema;
      fanout;
      lcap;
      nodes = [||];
      allocated = 0;
      root = nil;
      count = 0;
      first_leaf = nil;
      visit = None;
    }
  in
  let root = new_leaf t in
  t.root <- root;
  t.first_leaf <- root;
  t

let count_nodes t keep =
  let c = ref 0 in
  for i = 0 to t.allocated - 1 do
    if keep t.nodes.(i) then incr c
  done;
  !c

let node_count t = count_nodes t (function Free -> false | Leaf _ | Internal _ -> true)
let leaf_count t = count_nodes t (function Leaf _ -> true | Internal _ | Free -> false)

let rec height_of t n =
  match node t n with
  | Leaf _ -> 1
  | Internal nd -> 1 + height_of t nd.children.(0)
  | Free -> assert false

let height t = height_of t t.root

let compare_key a b = Bytes.compare a b

(* First child index i such that key < keys.(i); charged binary search. *)
let child_index t (nd : internal) key =
  let lo = ref 0 and hi = ref nd.kn in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    charge_comp t;
    if compare_key key nd.keys.(mid) < 0 then hi := mid else lo := mid + 1
  done;
  !lo

(* First tuple index i such that key <= key(tuples.(i)); charged. *)
let leaf_lower_bound t (lf : leaf) key =
  let lo = ref 0 and hi = ref lf.ln in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    charge_comp t;
    if S.Tuple.compare_key_to t.schema lf.tuples.(mid) key < 0 then
      lo := mid + 1
    else hi := mid
  done;
  !lo

let tuple_key t tup = S.Tuple.key_bytes t.schema tup

let search t key =
  let rec go n =
    touch t n;
    match node t n with
    | Leaf lf ->
      let i = leaf_lower_bound t lf key in
      if i < lf.ln then begin
        charge_comp t;
        if S.Tuple.compare_key_to t.schema lf.tuples.(i) key = 0 then
          Some lf.tuples.(i)
        else None
      end
      else None
    | Internal nd -> go nd.children.(child_index t nd key)
    | Free -> assert false
  in
  go t.root

(* Insert: returns (Some (sep_key, right_id)) when the child split. *)
let insert t tuple =
  if Bytes.length tuple <> S.Schema.tuple_width t.schema then
    invalid_arg "Btree.insert: tuple width mismatch";
  let key = tuple_key t tuple in
  let rec ins n =
    touch t n;
    match node t n with
    | Leaf lf ->
      let i = leaf_lower_bound t lf key in
      if
        i < lf.ln
        && (charge_comp t;
            S.Tuple.compare_key_to t.schema lf.tuples.(i) key = 0)
      then begin
        lf.tuples.(i) <- tuple;
        None
      end
      else begin
        (* Shift right to open slot i (arrays have one overflow slot). *)
        for j = lf.ln downto i + 1 do
          lf.tuples.(j) <- lf.tuples.(j - 1)
        done;
        lf.tuples.(i) <- tuple;
        lf.ln <- lf.ln + 1;
        t.count <- t.count + 1;
        if lf.ln <= t.lcap then None
        else begin
          (* Split: upper half moves to a fresh right sibling. *)
          let mid = lf.ln / 2 in
          let right_id = new_leaf t in
          let right =
            match node t right_id with Leaf r -> r | _ -> assert false
          in
          for j = mid to lf.ln - 1 do
            right.tuples.(j - mid) <- lf.tuples.(j);
            lf.tuples.(j) <- Bytes.empty
          done;
          right.ln <- lf.ln - mid;
          lf.ln <- mid;
          right.next <- lf.next;
          lf.next <- right_id;
          Some (tuple_key t right.tuples.(0), right_id)
        end
      end
    | Internal nd -> (
      let ci = child_index t nd key in
      match ins nd.children.(ci) with
      | None -> None
      | Some (sep, right_id) ->
        for j = nd.kn downto ci + 1 do
          nd.keys.(j) <- nd.keys.(j - 1);
          nd.children.(j + 1) <- nd.children.(j)
        done;
        nd.keys.(ci) <- sep;
        nd.children.(ci + 1) <- right_id;
        nd.kn <- nd.kn + 1;
        if nd.kn < t.fanout then None
        else begin
          (* Split internal: middle key moves up. *)
          let mid = nd.kn / 2 in
          let up_key = nd.keys.(mid) in
          let right_id = new_internal t in
          let right =
            match node t right_id with Internal r -> r | _ -> assert false
          in
          for j = mid + 1 to nd.kn - 1 do
            right.keys.(j - mid - 1) <- nd.keys.(j);
            nd.keys.(j) <- Bytes.empty
          done;
          for j = mid + 1 to nd.kn do
            right.children.(j - mid - 1) <- nd.children.(j);
            nd.children.(j) <- nil
          done;
          right.kn <- nd.kn - mid - 1;
          nd.keys.(mid) <- Bytes.empty;
          nd.kn <- mid;
          Some (up_key, right_id)
        end)
    | Free -> assert false
  in
  match ins t.root with
  | None -> ()
  | Some (sep, right_id) ->
    let new_root_id = new_internal t in
    let nr =
      match node t new_root_id with Internal r -> r | _ -> assert false
    in
    nr.kn <- 1;
    nr.keys.(0) <- sep;
    nr.children.(0) <- t.root;
    nr.children.(1) <- right_id;
    t.root <- new_root_id

let leaf_min t = t.lcap / 2
let internal_min_children t = t.fanout / 2

let iter_in_order t f =
  let rec walk n =
    if n <> nil then
      match node t n with
      | Leaf lf ->
        for i = 0 to lf.ln - 1 do
          f lf.tuples.(i)
        done;
        walk lf.next
      | Internal _ | Free -> assert false
  in
  walk t.first_leaf

let range_scan t ~lo ~hi f =
  let rec descend nid =
    touch t nid;
    match node t nid with
    | Leaf lf -> (lf, leaf_lower_bound t lf lo)
    | Internal nd -> descend nd.children.(child_index t nd lo)
    | Free -> assert false
  in
  let lf0, i0 = descend t.root in
  let exception Stop in
  let visit_leaf (lf : leaf) start =
    for i = start to lf.ln - 1 do
      charge_comp t;
      if S.Tuple.compare_key_to t.schema lf.tuples.(i) hi > 0 then raise Stop;
      f lf.tuples.(i)
    done
  in
  (try
     let cur = ref (Some (lf0, i0)) in
     while !cur <> None do
       match !cur with
       | None -> ()
       | Some (lf, start) ->
         visit_leaf lf start;
         if lf.next = nil then cur := None
         else begin
           touch t lf.next;
           match node t lf.next with
           | Leaf nxt -> cur := Some (nxt, 0)
           | Internal _ | Free -> assert false
         end
     done
   with Stop -> ())

let avg_leaf_occupancy t =
  let total = ref 0 and leaves = ref 0 in
  for i = 0 to t.allocated - 1 do
    match t.nodes.(i) with
    | Leaf lf ->
      total := !total + lf.ln;
      incr leaves
    | Internal _ | Free -> ()
  done;
  if !leaves = 0 then 0.0
  else float_of_int !total /. float_of_int (!leaves * t.lcap)

let check_invariants t =
  let ok = ref true in
  let fail () = ok := false in
  let rec depth n =
    match node t n with
    | Leaf _ -> 1
    | Internal nd -> 1 + depth nd.children.(0)
    | Free ->
      fail ();
      1
  in
  let d = depth t.root in
  (* Bounds are exclusive lo (>=) and exclusive hi (<): keys k in subtree
     satisfy lo <= k < hi when the bound is present. *)
  let in_bounds key lo hi =
    (match lo with Some l -> Bytes.compare key l >= 0 | None -> true)
    && match hi with Some h -> Bytes.compare key h < 0 | None -> true
  in
  let rec check n level lo hi =
    match node t n with
    | Leaf lf ->
      if level <> d then fail ();
      if n <> t.root && lf.ln < leaf_min t then fail ();
      for i = 0 to lf.ln - 1 do
        let k = tuple_key t lf.tuples.(i) in
        if not (in_bounds k lo hi) then fail ();
        if i > 0 then
          if S.Tuple.compare_keys t.schema lf.tuples.(i - 1) lf.tuples.(i) >= 0
          then fail ()
      done
    | Internal nd ->
      if nd.kn < 1 then fail ();
      if n <> t.root && nd.kn + 1 < internal_min_children t then fail ();
      for i = 0 to nd.kn - 1 do
        if not (in_bounds nd.keys.(i) lo hi) then fail ();
        if i > 0 && Bytes.compare nd.keys.(i - 1) nd.keys.(i) >= 0 then fail ()
      done;
      for i = 0 to nd.kn do
        let clo = if i = 0 then lo else Some nd.keys.(i - 1) in
        let chi = if i = nd.kn then hi else Some nd.keys.(i) in
        check nd.children.(i) (level + 1) clo chi
      done
    | Free -> fail ()
  in
  check t.root 1 None None;
  (* Leaf chain visits exactly [count] tuples in ascending order. *)
  let seen = ref 0 in
  let prev = ref None in
  iter_in_order t (fun tup ->
      incr seen;
      (match !prev with
      | Some p -> if S.Tuple.compare_keys t.schema p tup >= 0 then fail ()
      | None -> ());
      prev := Some tup);
  if !seen <> t.count then fail ();
  !ok

(* Split [n] items into chunks of [target], rebalancing the final two
   chunks when the tail would fall below [minimum]. *)
let chunk_sizes ~n ~target ~minimum =
  if n = 0 then []
  else begin
    let full = n / target and rem = n mod target in
    let sizes =
      if rem = 0 then List.init full (fun _ -> target)
      else List.init (full + 1) (fun i -> if i = full then rem else target)
    in
    match List.rev sizes with
    | last :: prev :: rest when last < minimum ->
      let move = minimum - last in
      List.rev ((last + move) :: (prev - move) :: rest)
    | _ -> sizes
  end

let bulk_load ~env ~schema ?(page_size = 4096) ?(occupancy = 1.0) tuples =
  if occupancy <= 0.5 || occupancy > 1.0 then
    invalid_arg "Btree.bulk_load: occupancy outside (0.5, 1.0]";
  let t = create ~env ~schema ~page_size () in
  (* Validate ordering. *)
  let rec check_sorted = function
    | a :: (b :: _ as rest) ->
      if S.Tuple.compare_keys schema a b >= 0 then
        invalid_arg "Btree.bulk_load: input not strictly key-sorted";
      check_sorted rest
    | [ _ ] | [] -> ()
  in
  check_sorted tuples;
  let n = List.length tuples in
  if n = 0 then t
  else begin
    (* The fresh tree owns an empty root leaf; rebuild from scratch. *)
    let leaf_target =
      max 1 (int_of_float (Float.round (occupancy *. float_of_int t.lcap)))
    in
    let leaf_minimum = min leaf_target (leaf_min t) in
    let sizes = chunk_sizes ~n ~target:leaf_target ~minimum:(max 1 leaf_minimum) in
    let remaining = ref tuples in
    let take k =
      let rec go acc k =
        if k = 0 then List.rev acc
        else
          match !remaining with
          | x :: rest ->
            remaining := rest;
            go (x :: acc) (k - 1)
          | [] -> assert false
      in
      go [] k
    in
    (* Build the leaf level, chained left-to-right. *)
    let leaves =
      List.map
        (fun size ->
          let id = new_leaf t in
          let lf = match node t id with Leaf l -> l | _ -> assert false in
          List.iteri (fun i tup -> lf.tuples.(i) <- tup) (take size);
          lf.ln <- size;
          (id, tuple_key t lf.tuples.(0)))
        sizes
    in
    let rec chain = function
      | (a, _) :: ((b, _) :: _ as rest) ->
        (match node t a with
        | Leaf lf -> lf.next <- b
        | Internal _ | Free -> assert false);
        chain rest
      | [ _ ] | [] -> ()
    in
    chain leaves;
    t.count <- n;
    (* Build internal levels bottom-up until one node remains. *)
    let child_target =
      max 2 (int_of_float (occupancy *. float_of_int t.fanout))
    in
    let child_minimum = max 2 (internal_min_children t) in
    let rec build level =
      match level with
      | [ (only, _) ] ->
        (* Free the placeholder root leaf, then install. *)
        t.nodes.(t.root) <- Free;
        t.root <- only;
        t.first_leaf <- fst (List.hd leaves)
      | _ ->
        (* perf_lint: one length per level; levels shrink geometrically *)
        let nchildren = List.length level in
        let sizes =
          chunk_sizes ~n:nchildren ~target:child_target
            ~minimum:(min child_target child_minimum)
        in
        let remaining = ref level in
        let take k =
          let rec go acc k =
            if k = 0 then List.rev acc
            else
              match !remaining with
              | x :: rest ->
                remaining := rest;
                go (x :: acc) (k - 1)
              | [] -> assert false
          in
          go [] k
        in
        let parents =
          List.map
            (fun size ->
              let id = new_internal t in
              let nd =
                match node t id with Internal x -> x | _ -> assert false
              in
              let children = take size in
              List.iteri
                (fun i (cid, ckey) ->
                  nd.children.(i) <- cid;
                  if i > 0 then nd.keys.(i - 1) <- ckey)
                children;
              nd.kn <- size - 1;
              (id, snd (List.hd children)))
            sizes
        in
        build parents
    in
    build (List.map (fun (id, k) -> (id, k)) leaves);
    t
  end
