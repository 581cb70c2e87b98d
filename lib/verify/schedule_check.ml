module D = Mmdb_util.Diag
module Sch = Mmdb_recovery.Schedule
module L = Mmdb_recovery.Log_record
module IntSet = Set.Make (Int)
module IntMap = Map.Make (Int)

(* ------------------------------------------------------------------ *)
(* What the walk learns about each transaction and each key            *)
(* ------------------------------------------------------------------ *)

(* An abort returns the transaction to [Active] as far as locking is
   concerned; [aborted] keeps its fate. *)
type phase = Active | Precommitted | Finished

type txn = {
  mutable held : IntSet.t;
      (* 2PL holdings: keys granted before pre-commit, not yet released *)
  mutable late : IntSet.t;
      (* keys granted after pre-commit: already TXN004, kept out of [held]
         so one bug does not cascade into TXN003, but still locks *)
  mutable released : bool;  (* any release yet: the growing phase is over *)
  mutable phase : phase;
  mutable aborted : bool;
  mutable waits_for : int option;  (* the key it is queued on *)
  mutable order : int list;  (* distinct keys in grant order, newest first *)
  mutable deps : IntSet.t;  (* pre-committed txns picked up via grants *)
  mutable durable : float option;  (* first Commit_durable time *)
}

(* Vector clocks map a domain to its epoch; a missing domain is epoch 0.
   A per-key access mark maps each domain to the epoch and transaction
   of its last such access. *)
type key = {
  mutable holder : int option;
  mutable waiters : IntSet.t;
  mutable accesses : (int * [ `R | `W ]) list;
      (* unversioned accesses, newest first: the precedence graph's input *)
  mutable release_vc : int IntMap.t;  (* clock of the last release *)
  mutable writes : (int * int) IntMap.t;
  mutable reads : (int * int) IntMap.t;  (* unversioned reads only *)
  mutable lockset : IntSet.t option;  (* Eraser candidate set; None = fresh *)
  mutable domains : IntSet.t;  (* domains with an unversioned access *)
}

(* Snapshot activity interval: a reader transaction's snapshot is active
   from its first versioned read to its last (trace positions). *)
type snapshot = {
  s_txn : int;
  s_dom : int;
  s_ts : float;
  s_lo : int;
  mutable s_hi : int;
}

let path_txn txn = Printf.sprintf "txn=%d" txn
let path_key txn key = Printf.sprintf "txn=%d key=%d" txn key
let path_dep txn dep = Printf.sprintf "txn=%d dep=%d" txn dep

let keys_phrase keys =
  Printf.sprintf "key%s %s"
    (if IntSet.cardinal keys = 1 then "" else "s")
    (String.concat "," (List.map string_of_int (IntSet.elements keys)))

(* The tail of [l] from the first [x]: a cycle closed back at [x]. *)
let rec from x = function
  | [] -> []
  | y :: rest as l -> if y = x then l else from x rest

(* TXN006 and TXN007 report each cycle once per set of transactions,
   rotated as found; [hop t next] describes one edge. *)
let cycle_reporter ~code ~prefix add =
  let seen = Hashtbl.create 4 in
  fun hop cycle ->
    let canon = List.sort compare cycle in
    if not (Hashtbl.mem seen canon) then begin
      Hashtbl.replace seen canon ();
      let arr = Array.of_list cycle in
      let n = Array.length arr in
      let hops = List.mapi (fun i t -> hop t arr.((i + 1) mod n)) cycle in
      add
        (D.error ~code
           ~path:
             ("cycle=" ^ String.concat "->" (List.map string_of_int cycle))
           (prefix ^ String.concat ", " hops))
    end

let epoch vc d = Option.value ~default:0 (IntMap.find_opt d vc)

(* The first prior access by a domain other than [d] that does not
   happen-before domain [d]'s clock [vc]. *)
let concurrent ~d vc marks =
  IntMap.min_binding_opt
    (IntMap.filter (fun e (ep, _) -> e <> d && ep > epoch vc e) marks)

(* ------------------------------------------------------------------ *)
(* The walk                                                            *)
(* ------------------------------------------------------------------ *)

let audit ?(log = []) events =
  let protocol = ref [] and races = ref [] in
  let add d = protocol := d :: !protocol in
  let txns : (int, txn) Hashtbl.t = Hashtbl.create 64 in
  let keys : (int, key) Hashtbl.t = Hashtbl.create 64 in
  let txn id =
    match Hashtbl.find_opt txns id with
    | Some t -> t
    | None ->
      let t =
        {
          held = IntSet.empty; late = IntSet.empty; released = false;
          phase = Active; aborted = false; waits_for = None; order = [];
          deps = IntSet.empty; durable = None;
        }
      in
      Hashtbl.replace txns id t;
      t
  in
  let key k =
    match Hashtbl.find_opt keys k with
    | Some s -> s
    | None ->
      let s =
        {
          holder = None; waiters = IntSet.empty; accesses = [];
          release_vc = IntMap.empty; writes = IntMap.empty;
          reads = IntMap.empty; lockset = None; domains = IntSet.empty;
        }
      in
      Hashtbl.replace keys k s;
      s
  in
  (* TXN002 and TXN004 are reported once per (code, txn, key), race
     findings once per (code, key). *)
  let reported : (string * int * int, unit) Hashtbl.t = Hashtbl.create 16 in
  let first code txn k =
    (not (Hashtbl.mem reported (code, txn, k)))
    && (Hashtbl.replace reported (code, txn, k) ();
        true)
  in
  let race ~code ~key:k ~dom msg =
    if first code (-1) k then
      races :=
        D.error ~code ~path:(Printf.sprintf "key=%d dom=%d" k dom) msg
        :: !races
  in
  (* Each domain starts with its own epoch at 1, so a fresh access by
     domain e reads as concurrent to one by d until a lock edge joins
     them. *)
  let clocks : (int, int IntMap.t) Hashtbl.t = Hashtbl.create 8 in
  let clock d =
    match Hashtbl.find_opt clocks d with
    | Some vc -> vc
    | None -> IntMap.singleton d 1
  in
  let snapshots : (int * float, snapshot) Hashtbl.t = Hashtbl.create 16 in
  let vwrites = ref [] in
  (* Waits-for: each txn waits for at most one key and each key has at
     most one holder, so a cycle is a lasso reachable by chain-walking. *)
  let deadlock = cycle_reporter ~code:"TXN006" ~prefix:"deadlock: " add in
  let detect_from start =
    let rec walk seen t =
      match (txn t).waits_for with
      | None -> ()
      | Some k -> (
        match (key k).holder with
        | None -> ()
        | Some h ->
          if List.mem h seen then
            deadlock
              (fun t next ->
                Printf.sprintf "txn %d waits for key %d held by txn %d" t
                  (Option.value ~default:(-1) (txn t).waits_for)
                  next)
              (from h (List.rev seen))
          else walk (h :: seen) h)
    in
    walk [ start ] start
  in
  let stop_waiting id t =
    Option.iter
      (fun k ->
        let s = key k in
        s.waiters <- IntSet.remove id s.waiters)
      t.waits_for;
    t.waits_for <- None
  in
  let granted id t ~dom k =
    if t.phase <> Active then begin
      if first "TXN004" id k then
        add
          (D.error ~code:"TXN004" ~path:(path_key id k)
             (Printf.sprintf
                "pre-committed transaction %d acquired the lock on key %d" id
                k));
      t.late <- IntSet.add k t.late
    end
    else begin
      if t.released && not (IntSet.mem k t.held) then
        add
          (D.error ~code:"TXN001" ~path:(path_key id k)
             (Printf.sprintf
                "transaction %d acquired key %d after its first release \
                 (two-phase locking growing phase is over)"
                id k));
      t.held <- IntSet.add k t.held
    end;
    let s = key k in
    s.holder <- Some id;
    stop_waiting id t;
    if not (List.mem k t.order) then t.order <- k :: t.order;
    (* The lock changed hands: its waiters now wait for [id], which can
       close a cycle. *)
    IntSet.iter detect_from s.waiters;
    (* Acquisition joins the last release's clock: the happens-before
       edge from the previous critical section on [k]. *)
    Hashtbl.replace clocks dom
      (IntMap.union (fun _ a b -> Some (max a b)) (clock dom) s.release_vc)
  in
  let unlocked id t k what =
    if (not (IntSet.mem k t.held)) && first "TXN002" id k then
      add
        (D.error ~code:"TXN002" ~path:(path_key id k)
           (Printf.sprintf "transaction %d %s key %d without holding its lock"
              id what k))
  in
  let who (d, (_, txn)) = Printf.sprintf "txn %d (domain %d)" txn d in
  (* Eraser: the candidate set shrinks to the intersection of every
     accessor's locks; two domains and an empty set is unguarded. *)
  let lockset id t s ~dom k =
    let locks = IntSet.union t.held t.late in
    s.lockset <-
      Some
        (match s.lockset with
        | None -> locks
        | Some c -> IntSet.inter c locks);
    s.domains <- IntSet.add dom s.domains;
    if IntSet.cardinal s.domains >= 2 && s.lockset = Some IntSet.empty then
      race ~code:"RACE003" ~key:k ~dom
        (Printf.sprintf
           "key %d is accessed by %d domains with an empty candidate lockset \
            (no lock consistently guards it; last access by txn %d)"
           k (IntSet.cardinal s.domains) id)
  in
  List.iteri
    (fun idx (e : Sch.event) ->
      let id = e.Sch.txn and dom = e.Sch.domain in
      let t = txn id in
      match (e.Sch.kind, e.Sch.key) with
      | Sch.Acquire, Some k ->
        if t.phase <> Active && first "TXN004" id k then
          add
            (D.error ~code:"TXN004" ~path:(path_key id k)
               (Printf.sprintf
                  "pre-committed transaction %d requested the lock on key %d"
                  id k))
      | (Sch.Grant { deps } | Sch.Wake { deps }), k ->
        t.deps <- List.fold_left (fun s d -> IntSet.add d s) t.deps deps;
        Option.iter (granted id t ~dom) k
      | Sch.Wait _, Some k ->
        stop_waiting id t;
        t.waits_for <- Some k;
        let s = key k in
        s.waiters <- IntSet.add id s.waiters;
        detect_from id
      | Sch.Read, Some k -> (
        match e.Sch.ver with
        | Some ts -> (
          match Hashtbl.find_opt snapshots (id, ts) with
          | Some s -> s.s_hi <- idx
          | None ->
            Hashtbl.replace snapshots (id, ts)
              { s_txn = id; s_dom = dom; s_ts = ts; s_lo = idx; s_hi = idx })
        | None ->
          unlocked id t k "read";
          let s = key k and vc = clock dom in
          s.accesses <- (id, `R) :: s.accesses;
          Option.iter
            (fun w ->
              race ~code:"RACE002" ~key:k ~dom
                (Printf.sprintf
                   "read/write race on key %d: read by txn %d (domain %d) is \
                    concurrent with the write by %s (no happens-before edge)"
                   k id dom (who w)))
            (concurrent ~d:dom vc s.writes);
          s.reads <- IntMap.add dom (epoch vc dom, id) s.reads;
          lockset id t s ~dom k)
      | Sch.Write, Some k ->
        let s = key k and vc = clock dom in
        Option.iter
          (fun w ->
            race ~code:"RACE001" ~key:k ~dom
              (Printf.sprintf
                 "write/write race on key %d: write by txn %d (domain %d) is \
                  concurrent with the write by %s (no happens-before edge)"
                 k id dom (who w)))
          (concurrent ~d:dom vc s.writes);
        (match e.Sch.ver with
        | Some ts -> vwrites := (idx, k, ts, id, dom) :: !vwrites
        | None ->
          unlocked id t k "wrote";
          s.accesses <- (id, `W) :: s.accesses;
          Option.iter
            (fun r ->
              race ~code:"RACE002" ~key:k ~dom
                (Printf.sprintf
                   "read/write race on key %d: write by txn %d (domain %d) is \
                    concurrent with the read by %s (no happens-before edge)"
                   k id dom (who r)))
            (concurrent ~d:dom vc s.reads);
          lockset id t s ~dom k);
        s.writes <- IntMap.add dom (epoch vc dom, id) s.writes
      | Sch.Release, Some k ->
        let locked = IntSet.mem k t.held || IntSet.mem k t.late in
        t.held <- IntSet.remove k t.held;
        t.late <- IntSet.remove k t.late;
        t.released <- true;
        let s = key k in
        if s.holder = Some id then s.holder <- None;
        if locked then begin
          let vc = clock dom in
          s.release_vc <- vc;
          Hashtbl.replace clocks dom (IntMap.add dom (epoch vc dom + 1) vc)
        end
        else
          race ~code:"RACE004" ~key:k ~dom
            (Printf.sprintf
               "protocol break on key %d: txn %d released a lock it never \
                acquired"
               k id)
      | Sch.Precommit, _ -> t.phase <- Precommitted
      | Sch.Abort, _ ->
        if t.phase = Precommitted then
          add
            (D.error ~code:"TXN005" ~path:(path_txn id)
               (Printf.sprintf
                  "pre-committed transaction %d aborted (pre-committed \
                   transactions never abort)"
                  id));
        t.phase <- Active;
        t.aborted <- true;
        stop_waiting id t
      | Sch.Commit_durable, _ ->
        if (t.phase = Precommitted || t.aborted) && not (IntSet.is_empty t.held)
        then
          add
            (D.error ~code:"TXN003" ~path:(path_txn id)
               (Printf.sprintf
                  "transaction %d still holds %s at commit durability \
                   (pre-commit and abort must release every lock)"
                  id (keys_phrase t.held)));
        t.phase <- Finished;
        if t.durable = None then t.durable <- Some e.Sch.time
      | (Sch.Acquire | Sch.Wait _ | Sch.Read | Sch.Write | Sch.Release), None
        ->
        (* A lock/access event without a key is a malformed trace entry;
           nothing to check. *)
        ())
    events;
  (* ---------------------------------------------------------------- *)
  (* End-of-trace passes                                               *)
  (* ---------------------------------------------------------------- *)
  let ends = ref [] in
  let add d = ends := d :: !ends in
  (* TXN003: pre-committed or aborted with locks left at the end of the
     trace. *)
  Hashtbl.iter
    (fun id t ->
      if (t.phase = Precommitted || t.aborted) && not (IntSet.is_empty t.held)
      then
        add
          (D.error ~code:"TXN003" ~path:(path_txn id)
             (Printf.sprintf "transaction %d %s but never released %s" id
                (if t.aborted then "aborted" else "pre-committed")
                (keys_phrase t.held))))
    txns;
  (* TXN101: the same key pair taken in both orders by different
     transactions is a latent deadlock even if this trace got lucky. *)
  let pair_dir : (int * int, int * int) Hashtbl.t = Hashtbl.create 64 in
  let pairs_reported : (int * int, unit) Hashtbl.t = Hashtbl.create 4 in
  Hashtbl.iter
    (fun id t ->
      let rec walk = function
        | [] -> ()
        | a :: rest ->
          List.iter
            (fun b ->
              let pair = (min a b, max a b) in
              match Hashtbl.find_opt pair_dir pair with
              | None -> Hashtbl.replace pair_dir pair (a, id)
              | Some (dir_first, other) ->
                if
                  dir_first <> a && other <> id
                  && not (Hashtbl.mem pairs_reported pair)
                then begin
                  Hashtbl.replace pairs_reported pair ();
                  add
                    (D.warning ~code:"TXN101"
                       ~path:
                         (Printf.sprintf "keys=%d,%d" (fst pair) (snd pair))
                       (Printf.sprintf
                          "inconsistent lock order: txn %d acquires key %d \
                           before key %d but txn %d acquires them in the \
                           opposite order (latent deadlock)"
                          other dir_first
                          (if dir_first = fst pair then snd pair else fst pair)
                          id))
                end)
            rest;
          walk rest
      in
      walk (List.rev t.order))
    txns;
  (* TXN007: the precedence graph over committed transactions — an edge
     a -> b when a accessed a key before b and at least one access was a
     write; the first witness per edge is kept. *)
  let committed id =
    let t = txn id in
    t.phase <> Active && not t.aborted
  in
  let edges : (int * int, int * [ `R | `W ] * [ `R | `W ]) Hashtbl.t =
    Hashtbl.create 64
  in
  let succs : (int, IntSet.t) Hashtbl.t = Hashtbl.create 64 in
  let succs_of t =
    Option.value ~default:IntSet.empty (Hashtbl.find_opt succs t)
  in
  Hashtbl.iter
    (fun k s ->
      let accs =
        Array.of_list
          (List.filter (fun (id, _) -> committed id) (List.rev s.accesses))
      in
      Array.iteri
        (fun i (ti, oi) ->
          for j = i + 1 to Array.length accs - 1 do
            let tj, oj = accs.(j) in
            if ti <> tj && (oi = `W || oj = `W) then begin
              if not (Hashtbl.mem edges (ti, tj)) then
                Hashtbl.replace edges (ti, tj) (k, oi, oj);
              Hashtbl.replace succs ti (IntSet.add tj (succs_of ti))
            end
          done)
        accs)
    keys;
  let op = function `R -> "R" | `W -> "W" in
  let serial =
    cycle_reporter ~code:"TXN007"
      ~prefix:"schedule not conflict-serializable: " add
  in
  let hop t next =
    match Hashtbl.find_opt edges (t, next) with
    | Some (k, o1, o2) ->
      Printf.sprintf "txn %d -[%s-%s key %d]-> txn %d" t (op o1) (op o2) k
        next
    | None -> Printf.sprintf "txn %d -> txn %d" t next
  in
  (* DFS with colours; every back edge closes a cycle. *)
  let color : (int, [ `Grey | `Black ]) Hashtbl.t = Hashtbl.create 64 in
  let rec dfs stack t =
    Hashtbl.replace color t `Grey;
    IntSet.iter
      (fun n ->
        match Hashtbl.find_opt color n with
        | Some `Grey -> serial hop (from n (List.rev (t :: stack)))
        | Some `Black -> ()
        (* perf_lint: DFS depth is bounded by the distinct txns seen *)
        | None -> dfs (t :: stack) n)
      (succs_of t);
    Hashtbl.replace color t `Black
  in
  Hashtbl.iter
    (fun id _ -> if not (Hashtbl.mem color id) then dfs [] id)
    txns;
  (* TXN008: every recorded dependency against durability times and,
     given [log], against the commit/abort records in submission order. *)
  let commit_pos : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let abort_rec : (int, unit) Hashtbl.t = Hashtbl.create 16 in
  List.iteri
    (fun i r ->
      match r with
      | L.Commit { txn; _ } ->
        if not (Hashtbl.mem commit_pos txn) then
          Hashtbl.replace commit_pos txn i
      | L.Abort { txn; _ } -> Hashtbl.replace abort_rec txn ()
      | L.Begin _ | L.Update _ | L.Command _ | L.Ckpt_begin _ | L.Ckpt_end _
        -> ())
    log;
  let durable id =
    Option.bind (Hashtbl.find_opt txns id) (fun t -> t.durable)
  in
  let by_id = Hashtbl.fold (fun id t acc -> (id, t) :: acc) txns [] in
  List.iter
    (fun (id, t) ->
      IntSet.iter
        (fun dep ->
          (* A dependant durable before its dependency's durability is
             recorded is checkable only against the log: a truncated
             trace may simply not have recorded it. *)
          (match (t.durable, durable dep) with
          | Some t_txn, Some t_dep when t_dep > t_txn ->
            add
              (D.error ~code:"TXN008" ~path:(path_dep id dep)
                 (Printf.sprintf
                    "commit of txn %d durable at %.6f before its dependency \
                     %d (durable %.6f): the group-commit ordering invariant \
                     is broken"
                    id t_txn dep t_dep))
          | _ -> ());
          if log <> [] then
            if Hashtbl.mem abort_rec dep then
              add
                (D.error ~code:"TXN008" ~path:(path_dep id dep)
                   (Printf.sprintf
                      "txn %d depends on pre-committed txn %d, but the log \
                       records txn %d aborting"
                      id dep dep))
            else
              let pos = Hashtbl.find_opt commit_pos in
              match (pos id, pos dep) with
              | Some _, None ->
                add
                  (D.error ~code:"TXN008" ~path:(path_dep id dep)
                     (Printf.sprintf
                        "txn %d committed but its dependency %d has no commit \
                         record in the log"
                        id dep))
              | Some p_txn, Some p_dep when p_dep > p_txn ->
                add
                  (D.error ~code:"TXN008" ~path:(path_dep id dep)
                     (Printf.sprintf
                        "commit record of dependency %d submitted after \
                         dependant %d's (log positions %d > %d)"
                        dep id p_dep p_txn))
              | _ -> ())
        t.deps)
    (List.sort (fun (a, _) (b, _) -> compare a b) by_id);
  (* RACE005: a write installing version [ts] races with every
     still-active snapshot at-or-above [ts] held by another domain — the
     scan may observe the key before and after the install.  Installs
     before the snapshot began are the versions it is supposed to read;
     installs after its last read are invisible to it. *)
  List.iter
    (fun (idx, k, ts, id, dom) ->
      Hashtbl.iter
        (fun _ s ->
          if s.s_dom <> dom && ts <= s.s_ts && s.s_lo < idx && idx < s.s_hi
          then
            race ~code:"RACE005" ~key:k ~dom
              (Printf.sprintf
                 "snapshot race on key %d: write by txn %d (domain %d) \
                  installs version %g at-or-below the concurrently active \
                  snapshot %g held by txn %d (domain %d)"
                 k id dom ts s.s_ts s.s_txn s.s_dom))
        snapshots)
    (List.rev !vwrites);
  List.rev !protocol @ List.rev !ends @ List.rev !races

let ok ?log events = not (D.has_errors (audit ?log events))

let code_catalogue =
  [
    ("TXN001", "lock acquired after the transaction's first release (2PL)");
    ("TXN002", "read/write of a key without holding its lock");
    ("TXN003", "lock still held after pre-commit or abort");
    ("TXN004", "pre-committed transaction acquired a lock");
    ("TXN005", "pre-committed transaction aborted");
    ("TXN006", "deadlock: cycle in the waits-for graph");
    ("TXN007", "schedule not conflict-serializable (precedence cycle)");
    ("TXN008", "commit durable/logged before a recorded dependency's");
    ("TXN101", "inconsistent lock-acquisition order across transactions \
                (warning)");
    ("RACE001", "write/write race: concurrent unordered writes to one key");
    ("RACE002", "read/write race: unordered read and write of one key");
    ( "RACE003",
      "unguarded shared access: empty candidate lockset across domains \
       (Eraser)" );
    ("RACE004", "lock protocol break: release without a matching acquire");
    ( "RACE005",
      "snapshot race: version installed at-or-below a concurrent active \
       snapshot" );
  ]
