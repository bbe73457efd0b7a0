exception Empty = Queue_intf.Empty

type 'a entry = { priority : int; seq : int; value : 'a }

type 'a queue = {
  mutable heap : 'a entry array;
  mutable size : int;
  mutable next_seq : int;
}

let create () = { heap = [||]; size = 0; next_seq = 0 }

(* Max-heap order: higher priority first; among equals, lower seq first. *)
let before a b = a.priority > b.priority || (a.priority = b.priority && a.seq < b.seq)

let swap q i j =
  let t = q.heap.(i) in
  q.heap.(i) <- q.heap.(j);
  q.heap.(j) <- t

let rec sift_up q i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if before q.heap.(i) q.heap.(parent) then begin
      swap q i parent;
      sift_up q parent
    end
  end

let rec sift_down q i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let best = ref i in
  if l < q.size && before q.heap.(l) q.heap.(!best) then best := l;
  if r < q.size && before q.heap.(r) q.heap.(!best) then best := r;
  if !best <> i then begin
    swap q i !best;
    sift_down q !best
  end

let enq q ~priority value =
  let entry = { priority; seq = q.next_seq; value } in
  q.next_seq <- q.next_seq + 1;
  if q.size = 0 && Array.length q.heap = 0 then q.heap <- Array.make 8 entry;
  if q.size = Array.length q.heap then begin
    let heap = Array.make (2 * q.size) entry in
    Array.blit q.heap 0 heap 0 q.size;
    q.heap <- heap
  end;
  q.heap.(q.size) <- entry;
  q.size <- q.size + 1;
  sift_up q (q.size - 1)

let deq q =
  if q.size = 0 then raise Empty;
  let top = q.heap.(0) in
  q.size <- q.size - 1;
  if q.size > 0 then begin
    q.heap.(0) <- q.heap.(q.size);
    sift_down q 0
  end;
  top.value

let deq_opt q = match deq q with x -> Some x | exception Empty -> None
let peek q = if q.size = 0 then raise Empty else q.heap.(0).value
let peek_opt q = if q.size = 0 then None else Some q.heap.(0).value
let length q = q.size
let is_empty q = q.size = 0
