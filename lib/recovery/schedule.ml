type kind =
  | Acquire
  | Grant of { deps : int list }
  | Wait of { holder : int }
  | Wake of { deps : int list }
  | Read
  | Write
  | Precommit
  | Commit_durable
  | Abort
  | Release

type event = {
  time : float;
  txn : int;
  key : int option;
  domain : int;
  ver : float option;
  kind : kind;
}

type recorder = {
  now : unit -> float;
  mutable rev_events : event list;
  mutable n : int;
}

let recorder ~now = { now; rev_events = []; n = 0 }

let emit r ?at ?key ?(domain = 0) ?ver ~txn kind =
  match r with
  | None -> ()
  | Some r ->
    let time = match at with Some t -> t | None -> r.now () in
    r.rev_events <- { time; txn; key; domain; ver; kind } :: r.rev_events;
    r.n <- r.n + 1

let events r = List.rev r.rev_events
let length r = r.n

let clear r =
  r.rev_events <- [];
  r.n <- 0

let domains events =
  List.sort_uniq compare (List.map (fun e -> e.domain) events)

let kind_name = function
  | Acquire -> "Acquire"
  | Grant _ -> "Grant"
  | Wait _ -> "Wait"
  | Wake _ -> "Wake"
  | Read -> "Read"
  | Write -> "Write"
  | Precommit -> "Precommit"
  | Commit_durable -> "CommitDurable"
  | Abort -> "Abort"
  | Release -> "Release"
