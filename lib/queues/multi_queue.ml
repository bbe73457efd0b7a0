module Make (L : Mp.Mp_intf.LOCK) = struct
  type 'a slot = { lock : L.mutex_lock; deque : 'a Deque.t }

  type 'a t = {
    slots : 'a slot array;
    mutable rotor : int; (* round-robin cursor for push_global; racy by design *)
    mutable steal_count : int;
    mutable steal_attempts : int;
        (* victims locked because their deque looked non-empty *)
    items : int Atomic.t;
        (* exact element count, updated inside the slot locks; lets the
           emptiness hint be O(1) instead of an O(procs) deque scan.  Kept
           atomic so concurrent sections under different slot locks
           (domains backend) cannot lose updates. *)
    wake : unit -> unit;
  }

  let create ?(wake = ignore) ~procs () =
    if procs <= 0 then invalid_arg "Multi_queue.create";
    {
      slots =
        Array.init procs (fun _ ->
            { lock = L.mutex_lock (); deque = Deque.create () });
      rotor = 0;
      steal_count = 0;
      steal_attempts = 0;
      items = Atomic.make 0;
      wake;
    }

  let procs t = Array.length t.slots

  (* Every critical section here is a handful of pointer swings, so the
     platform may fuse acquire/section/release into one episode. *)
  let protected slot f = L.locked slot.lock f

  (* A push's hint runs inside the section, at the write: the unlock after
     it is a charge, and a poller woken only after that charge could skip
     a poll that would have seen the item. *)
  let push t ~proc x =
    let slot = t.slots.(proc) in
    protected slot (fun () ->
        Deque.push_front slot.deque x;
        Atomic.incr t.items;
        t.wake ())

  let push_back t ~proc x =
    let slot = t.slots.(proc) in
    protected slot (fun () ->
        Deque.push_back slot.deque x;
        Atomic.incr t.items;
        t.wake ())

  let push_global t x =
    let proc = t.rotor mod procs t in
    t.rotor <- t.rotor + 1;
    push_back t ~proc x

  (* Peek the (racy) length before taking the lock: an empty-looking deque
     is skipped without paying for a lock round-trip.  A stale non-zero
     length only costs one wasted lock; a stale zero is corrected on the
     next scan. *)
  let take_local t ~proc =
    let slot = t.slots.(proc) in
    if Deque.is_empty slot.deque then None
    else
      protected slot (fun () ->
          match Deque.pop_front_opt slot.deque with
          | Some _ as r ->
              Atomic.decr t.items;
              r
          | None -> None)

  let steal t ~proc =
    let n = procs t in
    let rec scan i =
      if i >= n then None
      else
        let victim = (proc + i) mod n in
        let slot = t.slots.(victim) in
        if Deque.is_empty slot.deque then scan (i + 1)
        else begin
          t.steal_attempts <- t.steal_attempts + 1;
          match
            protected slot (fun () ->
                match Deque.pop_back_opt slot.deque with
                | Some _ as r ->
                    Atomic.decr t.items;
                    r
                | None -> None)
          with
          | Some _ as found ->
              t.steal_count <- t.steal_count + 1;
              found
          | None -> scan (i + 1)
        end
    in
    scan 1

  let take t ~proc =
    match take_local t ~proc with Some _ as x -> x | None -> steal t ~proc

  (* Charge-free emptiness hints: a [false] here implies [take]
     (resp. [take_local]) would return [None] without touching a lock.
     Used as the readiness predicate of an idle poller, so these must stay
     free of locks, charges and writes.  The global hint reads the exact
     item counter — O(1) where the deque scan was O(procs), which matters
     once idle pollers are serviced every quantum on 256–1024-proc
     machines.  Since every mutation happens inside a slot lock's critical
     section, the counter is non-zero exactly when some deque is non-empty
     at every point where no section is mid-flight. *)
  let looks_nonempty t = Atomic.get t.items > 0

  let looks_nonempty_local t ~proc = not (Deque.is_empty t.slots.(proc).deque)

  let total_length t =
    Array.fold_left (fun acc slot -> acc + Deque.length slot.deque) 0 t.slots

  let steals t = t.steal_count
  let steal_attempts t = t.steal_attempts
end
