open Mp
module Fifo = Queues.Fifo_queue

module Make (P : Mp.Mp_intf.PLATFORM_INT) (S : Mpthreads.Thread_intf.SCHED) =
struct
  module K = Mpthreads.Park.Make (P) (S)

  (* Every park and wake below goes through [K], tagged with the construct
     that parked the thread and counted under [sync.*]. *)
  let sync =
    let module L = K.Sync (struct end) in
    L.layer

  module Ivar = struct
    type 'a t = {
      spin : P.Lock.mutex_lock;
      mutable value : 'a option;
      mutable readers : 'a K.waiter list;
    }

    exception Already_filled

    let create () = { spin = P.Lock.mutex_lock (); value = None; readers = [] }

    let fill t v =
      P.Lock.lock t.spin;
      match t.value with
      | Some _ ->
          P.Lock.unlock t.spin;
          raise Already_filled
      | None ->
          t.value <- Some v;
          let readers = t.readers in
          t.readers <- [];
          P.Lock.unlock t.spin;
          List.iter (fun (k, tid) -> K.wake_with sync "sync.ivar" (k, v, tid)) readers

    let read t =
      K.park sync "sync.ivar" t.spin (fun () ->
          match t.value with
          | Some v -> K.Go (fun () -> v)
          | None -> K.Wait (fun w -> t.readers <- w :: t.readers))

    let poll t =
      P.Lock.lock t.spin;
      let v = t.value in
      P.Lock.unlock t.spin;
      v
  end

  module Mvar = struct
    type 'a t = {
      spin : P.Lock.mutex_lock;
      mutable value : 'a option;
      takers : 'a K.waiter Fifo.queue;
      (* A blocked putter: its value and its parked continuation. *)
      putters : ('a * unit K.waiter) Fifo.queue;
    }

    let create () =
      {
        spin = P.Lock.mutex_lock ();
        value = None;
        takers = Fifo.create ();
        putters = Fifo.create ();
      }

    let put t v =
      K.park sync "sync.mvar" t.spin (fun () ->
          match Fifo.deq_opt t.takers with
          | Some (taker, tid) ->
              K.Go (fun () -> K.wake_with sync "sync.mvar" (taker, v, tid))
          | None when t.value = None ->
              t.value <- Some v;
              K.Go ignore
          | None -> K.Wait (fun w -> Fifo.enq t.putters (v, w)))

    (* With the spin lock held and the slot full: empty the slot, refilling
       it from the first blocked putter.  Returns that putter's wake, to run
       once the lock is released. *)
    let refill t =
      match Fifo.deq_opt t.putters with
      | Some (pv, putter) ->
          t.value <- Some pv;
          fun () -> K.wake sync "sync.mvar" putter
      | None ->
          t.value <- None;
          ignore

    let take t =
      K.park sync "sync.mvar" t.spin (fun () ->
          match t.value with
          | Some v ->
              let wake = refill t in
              K.Go
                (fun () ->
                  wake ();
                  v)
          | None -> K.Wait (Fifo.enq t.takers))

    let try_take t =
      P.Lock.lock t.spin;
      match t.value with
      | Some v ->
          let wake = refill t in
          P.Lock.unlock t.spin;
          wake ();
          Some v
      | None ->
          P.Lock.unlock t.spin;
          None
  end

  module Semaphore = struct
    type t = {
      spin : P.Lock.mutex_lock;
      mutable count : int;
      waiters : unit K.waiter Fifo.queue;
    }

    let create n =
      if n < 0 then invalid_arg "Semaphore.create";
      { spin = P.Lock.mutex_lock (); count = n; waiters = Fifo.create () }

    let acquire t =
      K.park sync "sync.semaphore" t.spin (fun () ->
          if t.count > 0 then begin
            t.count <- t.count - 1;
            K.Go ignore
          end
          else K.Wait (Fifo.enq t.waiters))

    let try_acquire t =
      P.Lock.lock t.spin;
      let ok = t.count > 0 in
      if ok then t.count <- t.count - 1;
      P.Lock.unlock t.spin;
      ok

    let release t =
      P.Lock.lock t.spin;
      match Fifo.deq_opt t.waiters with
      | Some w ->
          (* Hand the permit directly to the next waiter. *)
          P.Lock.unlock t.spin;
          K.wake sync "sync.semaphore" w
      | None ->
          t.count <- t.count + 1;
          P.Lock.unlock t.spin

    let value t =
      P.Lock.lock t.spin;
      let v = t.count in
      P.Lock.unlock t.spin;
      v
  end

  module Rwlock = struct
    type t = {
      spin : P.Lock.mutex_lock;
      mutable readers : int; (* active readers *)
      mutable writing : bool;
      wait_readers : unit K.waiter Fifo.queue;
      wait_writers : unit K.waiter Fifo.queue;
    }

    let create () =
      {
        spin = P.Lock.mutex_lock ();
        readers = 0;
        writing = false;
        wait_readers = Fifo.create ();
        wait_writers = Fifo.create ();
      }

    let read_lock t =
      K.park sync "sync.rwlock" t.spin (fun () ->
          if (not t.writing) && Fifo.is_empty t.wait_writers then begin
            t.readers <- t.readers + 1;
            K.Go ignore
          end
          else K.Wait (Fifo.enq t.wait_readers))

    (* Called with the spin lock held; wakes whoever may proceed. *)
    let promote t =
      if (not t.writing) && t.readers = 0 then
        match Fifo.deq_opt t.wait_writers with
        | Some w ->
            t.writing <- true;
            P.Lock.unlock t.spin;
            K.wake sync "sync.rwlock" w
        | None ->
            let rec wake acc =
              match Fifo.deq_opt t.wait_readers with
              | Some w ->
                  t.readers <- t.readers + 1;
                  wake (w :: acc)
              | None -> acc
            in
            let ws = wake [] in
            P.Lock.unlock t.spin;
            List.iter (K.wake sync "sync.rwlock") ws
      else P.Lock.unlock t.spin

    let read_unlock t =
      P.Lock.lock t.spin;
      if t.readers <= 0 then begin
        P.Lock.unlock t.spin;
        invalid_arg "Rwlock.read_unlock: no active reader"
      end
      else begin
        t.readers <- t.readers - 1;
        promote t
      end

    let write_lock t =
      K.park sync "sync.rwlock" t.spin (fun () ->
          if (not t.writing) && t.readers = 0 then begin
            t.writing <- true;
            K.Go ignore
          end
          else K.Wait (Fifo.enq t.wait_writers))

    let write_unlock t =
      P.Lock.lock t.spin;
      if not t.writing then begin
        P.Lock.unlock t.spin;
        invalid_arg "Rwlock.write_unlock: not write-locked"
      end
      else begin
        t.writing <- false;
        promote t
      end

    let with_lock lock unlock t f =
      lock t;
      Kont_util.protect ~finally:(fun () -> unlock t) f

    let with_read t f = with_lock read_lock read_unlock t f
    let with_write t f = with_lock write_lock write_unlock t f
  end

  module Barrier = struct
    type t = {
      spin : P.Lock.mutex_lock;
      parties : int;
      mutable arrived : int;
      mutable waiters : (int Engine.cont * int * int) list;
    }

    let create ~parties =
      if parties <= 0 then invalid_arg "Barrier.create";
      { spin = P.Lock.mutex_lock (); parties; arrived = 0; waiters = [] }

    let await t =
      K.park sync "sync.barrier" t.spin (fun () ->
          let index = t.arrived in
          t.arrived <- t.arrived + 1;
          if t.arrived = t.parties then begin
            let ws = t.waiters in
            t.waiters <- [];
            t.arrived <- 0;
            K.Go
              (fun () ->
                List.iter (K.wake_with sync "sync.barrier") ws;
                index)
          end
          else
            K.Wait (fun (k, tid) -> t.waiters <- (k, index, tid) :: t.waiters))
  end

  (* Multilisp-style futures (the paper's §7 comparison point): a future is
     a forked thread plus a write-once result cell. *)
  module Future = struct
    type 'a t = 'a Ivar.t

    let spawn f =
      let cell = Ivar.create () in
      S.fork (fun () -> Ivar.fill cell (f ()));
      cell

    let of_value v =
      let cell = Ivar.create () in
      Ivar.fill cell v;
      cell

    let touch = Ivar.read
    let poll = Ivar.poll
    let map f t = spawn (fun () -> f (Ivar.read t))
  end

  module Countdown = struct
    type t = {
      spin : P.Lock.mutex_lock;
      mutable count : int;
      mutable waiters : unit K.waiter list;
    }

    let create n =
      if n < 0 then invalid_arg "Countdown.create";
      { spin = P.Lock.mutex_lock (); count = n; waiters = [] }

    let count_down t =
      P.Lock.lock t.spin;
      if t.count > 0 then t.count <- t.count - 1;
      let ws = if t.count = 0 then t.waiters else [] in
      if t.count = 0 then t.waiters <- [];
      P.Lock.unlock t.spin;
      List.iter (K.wake sync "sync.countdown") ws

    let await t =
      K.park sync "sync.countdown" t.spin (fun () ->
          if t.count = 0 then K.Go ignore
          else K.Wait (fun w -> t.waiters <- w :: t.waiters))

    let remaining t =
      P.Lock.lock t.spin;
      let n = t.count in
      P.Lock.unlock t.spin;
      n
  end
end
