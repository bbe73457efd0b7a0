open Mp
module Fifo = Queues.Fifo_queue

module Make (P : Mp.Mp_intf.PLATFORM_INT) (S : Thread_intf.SCHED) = struct
  type 'a waiter = 'a Engine.cont * int
  type layer = { blocks : Obs.Counters.counter; wakeups : Obs.Counters.counter }

  let layer name =
    {
      blocks = P.Telemetry.counter (name ^ ".blocks");
      wakeups = P.Telemetry.counter (name ^ ".wakeups");
    }

  type 'a step = Go of (unit -> 'a) | Wait of ('a waiter -> unit)

  let stamp () = (max 0 (P.Proc.self ()), P.Telemetry.now_ts ())

  let block l on thread =
    Obs.Counters.incr l.blocks;
    if P.Telemetry.enabled () then begin
      let proc, clock = stamp () in
      P.Telemetry.emit (Obs.Event.Blocked { proc; clock; thread; on })
    end;
    S.dispatch ()

  let woken l on thread =
    Obs.Counters.incr l.wakeups;
    if P.Telemetry.enabled () then begin
      let proc, clock = stamp () in
      P.Telemetry.emit (Obs.Event.Wakeup { proc; clock; thread; on })
    end

  let wake l on ((_, tid) as w) =
    woken l on tid;
    S.reschedule w

  let wake_with l on ((_, _, tid) as w) =
    woken l on tid;
    S.reschedule_thread w

  let park ?(release = ignore) l on spin decide =
    P.Lock.lock spin;
    match decide () with
    | Go after ->
        P.Lock.unlock spin;
        after ()
    | Wait enqueue ->
        Engine.callcc (fun k ->
            let tid = S.id () in
            enqueue (k, tid);
            P.Lock.unlock spin;
            release ();
            block l on tid)

  module Sync (_ : sig end) = struct
    let layer = layer "sync"

    module Mutex = struct
      type t = {
        spin : P.Lock.mutex_lock;
        mutable held : bool;
        waiters : unit waiter Fifo.queue;
      }

      let create () =
        { spin = P.Lock.mutex_lock (); held = false; waiters = Fifo.create () }

      let lock t =
        park layer "sync.mutex" t.spin (fun () ->
            if t.held then Wait (Fifo.enq t.waiters)
            else begin
              t.held <- true;
              Go ignore
            end)

      let try_lock t =
        P.Lock.lock t.spin;
        let ok = not t.held in
        if ok then t.held <- true;
        P.Lock.unlock t.spin;
        ok

      let unlock t =
        P.Lock.lock t.spin;
        match Fifo.deq_opt t.waiters with
        | Some w ->
            (* Hand ownership directly to the next waiter: [held] stays true. *)
            P.Lock.unlock t.spin;
            wake layer "sync.mutex" w
        | None ->
            t.held <- false;
            P.Lock.unlock t.spin

      let with_lock t f =
        lock t;
        Kont_util.protect ~finally:(fun () -> unlock t) f
    end

    module Condition = struct
      type t = { spin : P.Lock.mutex_lock; waiters : unit waiter Fifo.queue }

      let create () = { spin = P.Lock.mutex_lock (); waiters = Fifo.create () }

      let wait m t =
        park
          ~release:(fun () -> Mutex.unlock m)
          layer "sync.condition" t.spin
          (fun () -> Wait (Fifo.enq t.waiters));
        Mutex.lock m

      let signal t =
        P.Lock.lock t.spin;
        let w = Fifo.deq_opt t.waiters in
        P.Lock.unlock t.spin;
        Option.iter (wake layer "sync.condition") w

      let broadcast t =
        P.Lock.lock t.spin;
        let rec drain acc =
          match Fifo.deq_opt t.waiters with
          | Some w -> drain (w :: acc)
          | None -> acc
        in
        let ws = drain [] in
        P.Lock.unlock t.spin;
        List.iter (wake layer "sync.condition") ws
    end
  end
end
