exception Duplicate_id

(* A key is [clock lsl bits lor id]; with 0 <= id < 2^bits, integer order
   is the lexicographic (clock, id) order, so the sift loops compare and
   move single ints and an id comes back through [mask].  Only ints are
   stored: every pointer store into a mutable block would go through the
   write barrier ([caml_modify]). *)
type t = {
  bits : int; (* ⌈log2 ids⌉ *)
  mask : int; (* (1 lsl bits) - 1 *)
  keys : int array; (* slot -> key; slots >= size hold junk *)
  pos : int array; (* id -> slot, or -1 when absent *)
  mutable size : int;
  mutable ops : int;
}

let create ~ids =
  if ids <= 0 then invalid_arg "Ready_heap.create";
  let rec width b = if 1 lsl b >= ids then b else width (b + 1) in
  let bits = width 0 in
  {
    bits;
    mask = (1 lsl bits) - 1;
    keys = Array.make ids 0;
    pos = Array.make ids (-1);
    size = 0;
    ops = 0;
  }

let is_empty t = t.size = 0
let ops t = t.ops
let max_clock t = max_int lsr t.bits

(* Min order: earliest clock first, lowest id among equal clocks — exactly
   the order the O(P)-scan scheduler picked, so heap and scan dispatch
   identical sequences. *)

let[@inline] check_clock t fn clock =
  if clock < 0 || clock > max_clock t then
    invalid_arg (fn ^ ": clock past the packing bound")

(* Place key [k] at hole [i] or above it: shift larger parents down,
   place k once. *)
let sift_up t k i =
  let i = ref i in
  let placed = ref false in
  while not !placed do
    if !i = 0 then placed := true
    else begin
      let parent = (!i - 1) / 2 in
      let pk = t.keys.(parent) in
      if pk > k then begin
        t.keys.(!i) <- pk;
        t.pos.(pk land t.mask) <- !i;
        i := parent
      end
      else placed := true
    end
  done;
  t.keys.(!i) <- k;
  t.pos.(k land t.mask) <- !i

let push t ~clock ~id =
  check_clock t "Ready_heap.push" clock;
  if t.pos.(id) >= 0 then raise Duplicate_id;
  t.size <- t.size + 1;
  t.ops <- t.ops + 1;
  sift_up t ((clock lsl t.bits) lor id) (t.size - 1)

(* An earlier key can only move toward the root, so one sift-up from the
   id's own slot restores the order. *)
let decrease t ~clock ~id =
  check_clock t "Ready_heap.decrease" clock;
  let i = t.pos.(id) in
  if i < 0 then invalid_arg "Ready_heap.decrease: id not in the heap";
  let k = (clock lsl t.bits) lor id in
  if k > t.keys.(i) then invalid_arg "Ready_heap.decrease: later key";
  t.ops <- t.ops + 1;
  sift_up t k i

(* Allocation-free probe for the run-ahead fast path: would (clock, id)
   be dispatched ahead of every currently-ready proc? *)
let precedes_min t ~clock ~id =
  t.size = 0 || (clock lsl t.bits) lor id < t.keys.(0)

(* Place key [k] at the root hole of a heap of [n] slots: shift smaller
   children up, place k once. *)
let sift_down t k n =
  let i = ref 0 in
  let placed = ref false in
  while not !placed do
    let l = (2 * !i) + 1 in
    if l >= n then placed := true
    else begin
      let r = l + 1 in
      let c = if r < n && t.keys.(r) < t.keys.(l) then r else l in
      let ck = t.keys.(c) in
      if ck < k then begin
        t.keys.(!i) <- ck;
        t.pos.(ck land t.mask) <- !i;
        i := c
      end
      else placed := true
    end
  done;
  t.keys.(!i) <- k;
  t.pos.(k land t.mask) <- !i

(* Remove the minimum and return its id.  Undefined on an empty heap —
   callers check [is_empty]. *)
let pop_unchecked t =
  let id = t.keys.(0) land t.mask in
  t.pos.(id) <- -1;
  let last = t.size - 1 in
  t.size <- last;
  t.ops <- t.ops + 1;
  if last > 0 then sift_down t t.keys.(last) last;
  id

let peek_unchecked t = t.keys.(0) land t.mask

(* The minimum keeps its id and takes a new clock; one sift-down restores
   the order, whether the clock moved later or earlier. *)
let rekey_min t ~clock =
  check_clock t "Ready_heap.rekey_min" clock;
  if t.size = 0 then invalid_arg "Ready_heap.rekey_min: empty heap";
  t.ops <- t.ops + 1;
  sift_down t ((clock lsl t.bits) lor (t.keys.(0) land t.mask)) t.size

let clear t =
  for i = 0 to t.size - 1 do
    t.pos.(t.keys.(i) land t.mask) <- -1
  done;
  t.size <- 0;
  t.ops <- 0

let valid t =
  let ok = ref true in
  for i = 1 to t.size - 1 do
    if t.keys.(i) < t.keys.((i - 1) / 2) then ok := false
  done;
  for i = 0 to t.size - 1 do
    if t.pos.(t.keys.(i) land t.mask) <> i then ok := false
  done;
  let members = ref 0 in
  Array.iter (fun p -> if p >= 0 then incr members) t.pos;
  !ok && !members = t.size
