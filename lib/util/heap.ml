type 'a t = {
  cmp : 'a -> 'a -> int;
  on_swap : unit -> unit;
  mutable data : 'a array;
  mutable size : int;
}

let nop () = ()
let create ?(on_swap = nop) ~cmp () = { cmp; on_swap; data = [||]; size = 0 }
let length h = h.size
let is_empty h = h.size = 0

let grow h x =
  let cap = Array.length h.data in
  if h.size = cap then begin
    let ncap = if cap = 0 then 16 else 2 * cap in
    let ndata = Array.make ncap x in
    Array.blit h.data 0 ndata 0 h.size;
    h.data <- ndata
  end

let rec sift_up h i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if h.cmp h.data.(i) h.data.(parent) < 0 then begin
      let tmp = h.data.(i) in
      h.data.(i) <- h.data.(parent);
      h.data.(parent) <- tmp;
      h.on_swap ();
      sift_up h parent
    end
  end

let rec sift_down h i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < h.size && h.cmp h.data.(l) h.data.(!smallest) < 0 then smallest := l;
  if r < h.size && h.cmp h.data.(r) h.data.(!smallest) < 0 then smallest := r;
  if !smallest <> i then begin
    let tmp = h.data.(i) in
    h.data.(i) <- h.data.(!smallest);
    h.data.(!smallest) <- tmp;
    h.on_swap ();
    sift_down h !smallest
  end

let push h x =
  grow h x;
  h.data.(h.size) <- x;
  h.size <- h.size + 1;
  sift_up h (h.size - 1)

let peek h = if h.size = 0 then None else Some h.data.(0)

let pop h =
  if h.size = 0 then None
  else begin
    let min = h.data.(0) in
    h.size <- h.size - 1;
    if h.size > 0 then begin
      h.data.(0) <- h.data.(h.size);
      sift_down h 0
    end;
    Some min
  end

let pop_exn h =
  match pop h with
  | Some x -> x
  | None -> invalid_arg "Heap.pop_exn: empty heap"

let of_array ?(on_swap = nop) ~cmp a =
  let data = Array.copy a in
  let h = { cmp; on_swap; data; size = Array.length a } in
  for i = (h.size / 2) - 1 downto 0 do
    sift_down h i
  done;
  h

let check_invariant h =
  let ok = ref true in
  for i = 1 to h.size - 1 do
    let parent = (i - 1) / 2 in
    if h.cmp h.data.(parent) h.data.(i) > 0 then ok := false
  done;
  !ok
