(* Lock-free single-producer / multi-consumer work-stealing queue with
   steal-half.

   The occupied window is the index range [head, tail) of a circular
   [Obj.t] buffer.  The owner works at the newest end: [push] adds at
   [tail] and [pop] takes [tail - 1], so a fork/join tree on one proc runs
   depth-first.  Thieves take from the oldest end: [steal_half] claims the
   oldest ceil(n/2) elements at once.  The owner can also add at the
   oldest end ([push_oldest]), which is where a yielding thread goes so
   that it runs after everything already queued, and take back its newest
   element by identity ([take_back]), which is how a fork/join runs a
   child no thief took in the parent's own fiber.

   The window is one boxed [{head; tail}] record in a single cell, and
   every transition — owner or thief — replaces it by CAS with a freshly
   allocated record.  Physical equality then identifies a snapshot: no
   record is ever reinstalled, so there is no ABA, and a successful CAS
   proves that nothing moved since the snapshot was read.  In particular
   the owner's pop and a thief's steal racing for the last element are
   decided by the same CAS (the owner never shrinks the window with a
   plain store).

   Elements are written by the owner only, into slots outside the
   published window, before the CAS that publishes them.  A thief reads
   its batch between reading the window and its CAS; if the owner reused
   any of those slots meanwhile, the window changed and the CAS fails, so
   whatever it read is discarded.

   Buffer growth is owner-only grow-by-copy.  The copy never mutates the
   old buffer, and both buffers hold the same elements over the window
   the copy was made for, so a thief that read either one under an
   unchanged window read the right elements.

   Steal-half is the point of the structure: one successful CAS transfers
   ceil(n/2) elements, so a thief pays one bus transaction per batch
   instead of one per element (a Chase-Lev steal-one), amortizing victim
   traffic under heavy stealing.

   The algorithm is a functor over the platform's atomic cells
   ([Mp_intf.PRIMS]): the default instance below races on
   [Stdlib.Atomic]; the scheduler instantiates it over charged cells so
   the simulator prices pushes, pops and steals on the bus; mp_check
   instantiates it over instrumented cells where every access is a
   serialization point. *)

module Make (A : Mp.Mp_intf.PRIMS) = struct
  type buffer = { log_size : int; segment : Obj.t array }

  let buffer_make log_size =
    { log_size; segment = Array.make (1 lsl log_size) (Obj.repr ()) }

  let buffer_get b i = b.segment.(i land ((1 lsl b.log_size) - 1))
  let buffer_set b i v = b.segment.(i land ((1 lsl b.log_size) - 1)) <- v

  type window = { head : int; tail : int }

  type 'a t = {
    window : window A.cell;
    buf : buffer A.cell;
    occupied : int Atomic.t;
    wake : unit -> unit;
  }

  let create ?(occupied = Atomic.make 0) ?(wake = ignore) () =
    {
      window = A.make { head = 0; tail = 0 };
      buf = A.make (buffer_make 4);
      occupied;
      wake;
    }

  let size t =
    let w = A.get t.window in
    w.tail - w.head

  let length_hint t =
    let w = A.unsafe_peek t.window in
    w.tail - w.head

  let looks_nonempty t = length_hint t > 0

  (* Owner only: the buffer, grown if [w] fills it, so one more element
     fits at either end. *)
  let room t w =
    let b = A.get t.buf in
    if w.tail - w.head < 1 lsl b.log_size then b
    else begin
      let bigger = buffer_make (b.log_size + 1) in
      for i = w.head to w.tail - 1 do
        buffer_set bigger i (buffer_get b i)
      done;
      A.set t.buf bigger;
      bigger
    end

  (* Replace the snapshot [w] by [w'].  Only a CAS that fills the empty
     queue or takes its last element touches the shared [occupied]
     count, and only a fill — the owner's push or push_oldest, or a thief
     re-owning a stolen batch — issues the [wake] hint, in the same
     charge-free step as the CAS that published the item. *)
  let claim t w w' =
    let ok = A.compare_and_set t.window w w' in
    if ok then begin
      let was = w.tail - w.head and now = w'.tail - w'.head in
      if was = 0 && now > 0 then begin
        Atomic.incr t.occupied;
        t.wake ()
      end
      else if was > 0 && now = 0 then Atomic.decr t.occupied
    end;
    ok

  (* Owner only.  The CAS fails only when a thief claimed a batch since
     [w] was read; the slot written is still free, so retry. *)
  let rec push t v =
    let w = A.get t.window in
    buffer_set (room t w) w.tail (Obj.repr v);
    if not (claim t w { w with tail = w.tail + 1 }) then push t v

  let rec push_oldest t v =
    let w = A.get t.window in
    buffer_set (room t w) (w.head - 1) (Obj.repr v);
    if not (claim t w { w with head = w.head - 1 }) then push_oldest t v

  (* Owner only: the newest element. *)
  let rec pop : type a. a t -> a option =
   fun t ->
    let w = A.get t.window in
    if w.tail - w.head <= 0 then None
    else
      let v : a = Obj.obj (buffer_get (A.get t.buf) (w.tail - 1)) in
      if claim t w { w with tail = w.tail - 1 } then Some v else pop t

  (* Owner only: remove [x] if it is still the newest element, decided by
     the same CAS as [pop].  Every slot inside the window was written when
     it entered it, and an item is pushed once, so a newest slot holding
     [x] means no thief has claimed it. *)
  let rec take_back t x =
    let w = A.get t.window in
    w.tail - w.head > 0
    && buffer_get (A.get t.buf) (w.tail - 1) == Obj.repr x
    && (claim t w { w with tail = w.tail - 1 } || take_back t x)

  (* Thief: claim the oldest ceil(n/2) elements with one CAS.  Returns
     [| |] when the queue looked empty or the claim was lost — the thief
     moves on to another victim rather than spinning here. *)
  let steal_half (type a) (t : a t) : a array =
    let w = A.get t.window in
    let n = w.tail - w.head in
    if n <= 0 then [||]
    else begin
      let k = (n + 1) / 2 in
      let b = A.get t.buf in
      let batch =
        Array.init k (fun i -> (Obj.obj (buffer_get b (w.head + i)) : a))
      in
      if claim t w { w with head = w.head + k } then batch else [||]
    end
end

include Make (Mp.Mp_intf.Atomic_prims)
