(* Lock-free single-producer / multi-consumer FIFO with steal-half.

   [tail] is the owner's end (written only by the single producer); [head]
   is the consumption end, advanced by CAS from both the owner's [pop] and
   thieves' [steal_half].  Indices are monotone ints over a circular
   [Obj.t] buffer, so there is no ABA: a CAS
   on [head] succeeds iff no other consumer claimed any part of the
   window since it was read, and success grants exclusive ownership of
   the claimed [head, head') range.

   Steal-half is the point of the structure: one successful CAS transfers
   ceil(n/2) elements, so a thief pays one bus transaction per batch
   instead of one per element (a Chase-Lev steal-one), amortizing victim
   traffic under heavy stealing.

   Buffer growth is owner-only grow-by-copy.  The copy never mutates the
   old buffer and [head] never moves backwards, so a thief that read the
   old buffer either CASes successfully (its claimed slots were copied,
   not overwritten — the owner writes fresh elements only into the new
   buffer) or fails and discards what it read.  Racy reads of claimed-in-
   flight slots may observe stale values; they are discarded on CAS
   failure.

   The algorithm is a functor over the platform's atomic cells
   ([Mp_intf.PRIMS]): the default instance below races on
   [Stdlib.Atomic]; the scheduler instantiates it over charged cells so
   the simulator prices pops and steals on the bus; mp_check instantiates
   it over instrumented cells where every access is a serialization
   point. *)

module Make (A : Mp.Mp_intf.PRIMS) = struct
  type buffer = { log_size : int; segment : Obj.t array }

  let buffer_make log_size =
    { log_size; segment = Array.make (1 lsl log_size) (Obj.repr ()) }

  let buffer_get b i = b.segment.(i land ((1 lsl b.log_size) - 1))
  let buffer_set b i v = b.segment.(i land ((1 lsl b.log_size) - 1)) <- v

  type 'a t = { head : int A.cell; tail : int A.cell; buf : buffer A.cell }

  let create () =
    { head = A.make 0; tail = A.make 0; buf = A.make (buffer_make 4) }

  let size t = max 0 (A.get t.tail - A.get t.head)
  let length_hint t = max 0 (A.unsafe_peek t.tail - A.unsafe_peek t.head)
  let looks_nonempty t = A.unsafe_peek t.tail - A.unsafe_peek t.head > 0

  let grow t b head tail =
    let bigger = buffer_make (b.log_size + 1) in
    for i = head to tail - 1 do
      buffer_set bigger i (buffer_get b i)
    done;
    A.set t.buf bigger;
    bigger

  (* Owner only. *)
  let push t v =
    let tail = A.get t.tail in
    let head = A.get t.head in
    let b = A.get t.buf in
    (* [head] may be stale (it only advances), so [tail - head] is an
       over-estimate of occupancy and growth is conservative. *)
    let b = if tail - head >= 1 lsl b.log_size then grow t b head tail else b in
    buffer_set b tail (Obj.repr v);
    (* publish the element before publishing the new tail *)
    A.set t.tail (tail + 1)

  (* Any consumer: claim the oldest element with a CAS on [head]. *)
  let pop (type a) (t : a t) : a option =
    let rec attempt () =
      let head = A.get t.head in
      let tail = A.get t.tail in
      if tail - head <= 0 then None
      else begin
        let b = A.get t.buf in
        let v : a = Obj.obj (buffer_get b head) in
        if A.compare_and_set t.head head (head + 1) then Some v
        else attempt () (* lost the claim to another consumer *)
      end
    in
    attempt ()

  (* Thief: claim the oldest ceil(n/2) elements with one CAS.  Returns
     [| |] when the queue looked empty or the claim was lost — the thief
     moves on to another victim rather than spinning here. *)
  let steal_half (type a) (t : a t) : a array =
    let head = A.get t.head in
    let tail = A.get t.tail in
    let n = tail - head in
    if n <= 0 then [||]
    else begin
      let k = (n + 1) / 2 in
      let b = A.get t.buf in
      let batch =
        Array.init k (fun i -> (Obj.obj (buffer_get b (head + i)) : a))
      in
      if A.compare_and_set t.head head (head + k) then batch else [||]
    end
end

include Make (Mp.Mp_intf.Atomic_prims)
