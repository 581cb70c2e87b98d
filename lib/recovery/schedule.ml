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
}

let recorder ~now = { now; rev_events = [] }

let emit r ?at ?key ?(domain = 0) ?ver ~txn kind =
  match r with
  | None -> ()
  | Some r ->
    let time = match at with Some t -> t | None -> r.now () in
    r.rev_events <- { time; txn; key; domain; ver; kind } :: r.rev_events

let events r = List.rev r.rev_events

let domains events =
  List.sort_uniq compare (List.map (fun e -> e.domain) events)
