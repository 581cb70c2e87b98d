module S = Mmdb_storage

type t = {
  disk : S.Disk.t;
  pool : S.Buffer_pool.t;
  nodes_per_page : int;
  page_of_group : (int, int) Hashtbl.t; (* node_id / npp -> disk page id *)
}

let create ~disk ~pool_capacity ~policy ~nodes_per_page =
  if nodes_per_page <= 0 then invalid_arg "Pager.create: nodes_per_page <= 0";
  {
    disk;
    pool = S.Buffer_pool.create ~disk ~capacity:pool_capacity policy;
    nodes_per_page;
    page_of_group = Hashtbl.create 1024;
  }

let nodes_per_page t = t.nodes_per_page

let hook t node_id =
  let group = node_id / t.nodes_per_page in
  let pid =
    match Hashtbl.find_opt t.page_of_group group with
    | Some pid -> pid
    | None ->
      let pid = S.Disk.alloc t.disk in
      Hashtbl.replace t.page_of_group group pid;
      pid
  in
  ignore (S.Buffer_pool.get t.pool pid)

let attach_avl t avl = Avl.set_visit_hook avl (Some (hook t))
let attach_btree t bt = Btree.set_visit_hook bt (Some (hook t))
let pages_touched t = Hashtbl.length t.page_of_group
let pool t = t.pool
