open Mp

module Make (P : Mp.Mp_intf.PLATFORM_INT) = struct
  module Policy = Sched_policy.Make (P)

  type runnable =
    | Thunk of (unit -> unit) * int
    | Cont : 'a Engine.cont * 'a * int -> runnable

  (* The ready queue behind a first-class SCHEDULER instance: the policy
     (central FIFO/LIFO, distributed deques, work stealing, micropools) is
     chosen per pool and every queue operation below dispatches through
     it.  The default [Distributed] policy issues exactly the operation
     sequence the pre-policy scheduler issued, so simulator goldens are
     bit-identical under it. *)
  module type RQ = sig
    module S : Thread_intf.SCHEDULER

    val q : runnable S.t
  end

  let make_rq policy ~procs : (module RQ) =
    let (module S : Thread_intf.SCHEDULER) = Policy.instance policy in
    (module struct
      module S = S

      let q = S.create ~procs
    end)

  let rq : (module RQ) ref = ref (make_rq Sched_policy.default ~procs:1)
  let active = ref false
  let finished = ref false
  let acquired = ref 1
  let quantum = ref 0.02
  let thread_error : exn option Atomic.t = Atomic.make None

  (* Per-proc scheduler state.  Each record is written only by its own
     proc and padded onto its own cache lines, so no fork or dispatch
     writes a line another proc writes (the totals are summed when read).
     [forks] also numbers the proc's threads: the k-th thread forked on
     proc p of N gets id k * N + p + 1, unique across procs and never the
     root's 0. *)
  type proc_state = {
    mutable forks : int;
    mutable switches : int;
    mutable last_switch : float;
  }

  let fresh_states now =
    Array.init (P.Proc.max_procs ()) (fun _ ->
        Mp_intf.padded { forks = 0; switches = 0; last_switch = now })

  let per_proc = ref (fresh_states 0.)
  let total field = Array.fold_left (fun acc s -> acc + field s) 0 !per_proc

  (* Pending timers in a binary-heap priority queue, earliest wake time
     first (O(log n) insert instead of the old O(n) sorted-list insert;
     FIFO among equal times via the queue's sequence numbers).  Callbacks
     run in dispatch/poll context (inside a fiber), so they may take
     platform locks. *)
  module PQ = Queues.Priority_queue

  let timer_lock = P.Lock.mutex_lock ()
  let timers : (float * (unit -> unit)) PQ.queue ref = ref (PQ.create ())

  (* The queue's priority is an int, highest first: negated nanoseconds
     gives earliest-time-first.  ns resolution is finer than both the
     simulator's cycle (62.5 ns at 16 MHz) and the wall clock's microsecond,
     so distinct wake times keep distinct priorities. *)
  let timer_priority time = -(int_of_float (time *. 1e9))

  (* The heap's earliest due time ([infinity] when empty), rewritten under
     [timer_lock] after every heap change.  Only the heap needs the lock:
     this cell is read without it, on every backend, because dispatch
     checks it on every idle iteration and taking the lock each time would
     make the timer lock the hottest word in the system.  A stale read can
     only delay a fire to the next check or cost one empty locked drain;
     the drain re-checks everything. *)
  let next_due = Atomic.make infinity

  (* The platform is handed every new due time: it is the deadline at
     which an idle proc's [timer_due] can turn true with no hinted write
     ([Work.idle_deadline]). *)
  let note_heap_changed () =
    let t = match PQ.peek_opt !timers with Some (t, _) -> t | None -> infinity in
    Atomic.set next_due t;
    P.Work.idle_deadline t

  (* A new timer can bring [next_due] forward, so it wakes idle procs
     inside the section, where the write happened. *)
  let at time callback =
    P.Lock.locked timer_lock (fun () ->
        PQ.enq !timers ~priority:(timer_priority time) (time, callback);
        note_heap_changed ();
        P.Work.wake_idle ())

  (* Charge-free: the clock is read only when a timer is pending. *)
  let timer_due () =
    let t = Atomic.get next_due in
    t < infinity && t <= P.Work.now ()

  (* Fire every due timer; true if any fired. *)
  let fire_due_timers () =
    if not (timer_due ()) then false
    else begin
      let now = P.Work.now () in
      let rec drain acc =
        match PQ.peek_opt !timers with
        | Some (t, _) when t <= now ->
            let _, cb = PQ.deq !timers in
            drain (cb :: acc)
        | _ ->
            note_heap_changed ();
            List.rev acc
      in
      let due = P.Lock.locked timer_lock (fun () -> drain []) in
      List.iter (fun cb -> cb ()) due;
      due <> []
    end

  let record_error e =
    ignore (Atomic.compare_and_set thread_error None (Some e))

  let id () = P.Proc.get_datum ()

  (* Telemetry: dispatch/steal events are emitted live (guarded, so the
     quiet path costs one boolean load); fork/switch/steal totals are
     folded into the counter registry at the end of [with_pool], keeping
     the hot paths free of extra atomics.  [sched.queue_depth] is a max
     gauge sampled at forks, so like the events it is only populated when
     telemetry is enabled. *)
  let c_forks = P.Telemetry.counter "sched.forks"
  let c_switches = P.Telemetry.counter "sched.switches"
  let c_steals = P.Telemetry.counter "sched.steals"
  let c_steal_attempts = P.Telemetry.counter "sched.steal_attempts"
  let c_steal_hits = P.Telemetry.counter "sched.steal_hits"
  let c_depth = P.Telemetry.counter "sched.queue_depth"

  (* Called after a successful take when telemetry is on: a steal shows up
     as a bump of the policy's steal counter across the take. *)
  let note_run proc steals_now steals0 tid =
    let ts = P.Telemetry.now_ts () in
    if steals_now > steals0 then
      P.Telemetry.emit (Obs.Event.Steal { proc; clock = ts });
    P.Telemetry.emit (Obs.Event.Switch { proc; clock = ts; thread = tid })

  let mark_switch me =
    me.switches <- me.switches + 1;
    me.last_switch <- P.Work.now ()

  let rec dispatch () =
    let proc = P.Proc.self () in
    mark_switch !per_proc.(proc);
    let tel = P.Telemetry.enabled () in
    let (module Q) = !rq in
    let steals0 = if tel then Q.S.steals Q.q else 0 in
    match Q.S.take Q.q ~proc with
    | Some (Thunk (f, tid)) ->
        if tel then note_run proc (Q.S.steals Q.q) steals0 tid;
        P.Proc.set_datum tid;
        (try f () with
         | Engine.Abandoned as e -> raise e
         | e -> record_error e);
        dispatch ()
    | Some (Cont (k, v, tid)) ->
        if tel then note_run proc (Q.S.steals Q.q) steals0 tid;
        P.Proc.set_datum tid;
        Engine.throw k v
    | None ->
        if fire_due_timers () then dispatch ()
        else if !finished then P.Proc.release_proc ()
        else begin
          (* Idle until any of the conditions the loop above would act on
             can hold.  The predicate mirrors this dispatch's uncharged
             failure path read-for-read — the policy's charge-free queue
             hint, the earliest due time, the finished flag — and is
             side-effect- and charge-free, as [Work.idle_until] requires; a
             wake re-runs the full (charged) probes above from the same
             position.  Every write that can turn it true issues
             [Work.wake_idle] (a queue fill, [at], the pool's finish), and
             the earliest due time is the declared [Work.idle_deadline]. *)
          P.Work.idle_until ~ready:(fun () ->
              !finished
              || timer_due ()
              || Q.S.looks_nonempty Q.q ~proc);
          dispatch ()
        end

  let enqueue r =
    let (module Q) = !rq in
    Q.S.push_local Q.q ~proc:(P.Proc.self ()) r

  (* New threads go wherever the policy places unaffiliated work (the
     distributed policies spray them round-robin); resumed continuations
     stay on the resuming proc's queue for affinity.  [spawn] returns the
     runnable it queued, so that [fork_join] can take it back. *)
  let spawn child =
    let proc = max 0 (P.Proc.self ()) in
    let me = !per_proc.(proc) in
    let tid = (me.forks * Array.length !per_proc) + proc + 1 in
    me.forks <- me.forks + 1;
    let (module Q) = !rq in
    let r = Thunk (child, tid) in
    Q.S.push_new Q.q ~proc r;
    if P.Telemetry.enabled () then begin
      let ts = P.Telemetry.now_ts () in
      let depth = Q.S.total_length Q.q in
      P.Telemetry.emit (Obs.Event.Fork { proc; clock = ts; thread = tid });
      (* Sample run-queue pressure where it changes: at thread creation. *)
      P.Telemetry.emit (Obs.Event.Queue_depth { proc; clock = ts; depth });
      Obs.Counters.max_gauge c_depth depth
    end;
    r

  let fork child = ignore (spawn child)

  (* An explicit yield and a quantum preemption alike: the policy decides
     where a yielder waits (work stealing puts it behind its queue). *)
  let yield () =
    Engine.callcc (fun cont ->
        let (module Q) = !rq in
        Q.S.push_yield Q.q ~proc:(P.Proc.self ()) (Cont (cont, (), id ()));
        dispatch ())

  let reschedule (cont, tid) = enqueue (Cont (cont, (), tid))
  let reschedule_thread (k, v, tid) = enqueue (Cont (k, v, tid))

  (* Timer-driven polling preemption (paper §3.4): at every safe point, if
     the running thread has exceeded its quantum, force a yield. *)
  let poll_check () =
    if !active then begin
      ignore (fire_due_timers ());
      let proc = P.Proc.self () in
      if proc >= 0 && P.Work.now () -. !per_proc.(proc).last_switch > !quantum
      then yield ()
    end

  let worker_cont () =
    Kont_util.cont_of_thunk ~on_return:P.Proc.release_proc (fun () ->
        dispatch ())

  let with_pool ?procs ?quantum:(q = 0.02) ?sched:(policy = Sched_policy.default)
      f =
    if !active then invalid_arg "Sched_thread.with_pool: not reentrant";
    let max_procs = P.Proc.max_procs () in
    let want = match procs with None -> max_procs | Some p -> max 1 p in
    rq := make_rq policy ~procs:max_procs;
    active := true;
    finished := false;
    acquired := 1;
    Atomic.set thread_error None;
    timers := PQ.create ();
    note_heap_changed ();
    per_proc := fresh_states (P.Work.now ());
    quantum := q;
    P.Work.set_poll_hook poll_check;
    (try
       while !acquired < want do
         P.Proc.acquire_proc (P.Proc.PS (worker_cont (), 0));
         incr acquired
       done
     with Mp_intf.No_More_Procs -> ());
    let (module Q) = !rq in
    (* Elastic policies clamp themselves to the procs actually acquired;
       nothing has been forked yet, so the clamp cannot strand work. *)
    Q.S.prepare Q.q ~procs:!acquired;
    let result =
      try Ok (f ()) with Engine.Abandoned as e -> raise e | e -> Error e
    in
    finished := true;
    P.Work.wake_idle ();
    active := false;
    P.Work.set_poll_hook (fun () -> ());
    Obs.Counters.set c_forks (total (fun s -> s.forks));
    Obs.Counters.set c_switches (total (fun s -> s.switches));
    Obs.Counters.set c_steals (Q.S.steals Q.q);
    Obs.Counters.set c_steal_attempts (Q.S.steal_attempts Q.q);
    Obs.Counters.set c_steal_hits (Q.S.steals Q.q);
    match (result, Atomic.get thread_error) with
    | Ok v, None -> v
    | Ok _, Some e -> raise e
    | Error e, _ -> raise e

  (* Fork [fns] in order, then walk them newest first on the way back out
     of the recursion, running in place each child the policy takes back
     (Cilk's work-first rule; only [ws] takes back).  Returns how many ran
     in place.  The recursion keeps the walk free of allocation, so a
     policy that cannot take back pays nothing for it.  A child run in
     place is thread [tid] in the parent's fiber, with no join lock; it is
     a switch, as a dispatch of it would be.  A child that blocks may
     resume on another proc, so the proc is read after each child, and the
     parent's id is restored on whichever proc it ends on. *)
  let rec fork_all wrap = function
    | [] -> 0
    | f :: rest -> (
        let r = spawn (wrap f) in
        let inlined = fork_all wrap rest in
        let (module Q) = !rq in
        let proc = max 0 (P.Proc.self ()) in
        match r with
        | Thunk (_, tid) when Q.S.take_back Q.q ~proc r ->
            let parent = id () in
            mark_switch !per_proc.(proc);
            if P.Telemetry.enabled () then
              P.Telemetry.emit
                (Obs.Event.Switch
                   { proc; clock = P.Telemetry.now_ts (); thread = tid });
            P.Proc.set_datum tid;
            (try f () with
             | Engine.Abandoned as e -> raise e
             | e -> record_error e);
            P.Proc.set_datum parent;
            inlined + 1
        | _ -> inlined)

  let fork_join fns =
    match fns with
    | [] -> ()
    | fns ->
        let n = List.length fns in
        let lock = P.Lock.mutex_lock () in
        let remaining = ref n in
        let waiter : (unit Engine.cont * int) option ref = ref None in
        let wrap f () =
          (try f () with
           | Engine.Abandoned as e -> raise e
           | e -> record_error e);
          let w =
            P.Lock.locked lock (fun () ->
                decr remaining;
                let w = if !remaining = 0 then !waiter else None in
                if w <> None then waiter := None;
                w)
          in
          match w with
          | Some (k, tid) -> reschedule (k, tid)
          | None -> ()
        in
        let inlined = fork_all wrap fns in
        let my_tid = id () in
        (* Only a child left in the queue, or stolen, is waited for.  The
           children run in place are subtracted inside the section, since
           no [callcc] may run inside one. *)
        if inlined < n then
          Engine.callcc (fun k ->
              let zero =
                P.Lock.locked lock (fun () ->
                    remaining := !remaining - inlined;
                    if !remaining = 0 then true
                    else begin
                      waiter := Some (k, my_tid);
                      false
                    end)
              in
              if zero then Engine.throw k () else dispatch ())

  let par_iter ?chunks n f =
    if n > 0 then begin
      let chunks =
        match chunks with
        | Some c -> max 1 (min c n)
        | None -> max 1 (min (4 * P.Proc.max_procs ()) n)
      in
      let block_size = (n + chunks - 1) / chunks in
      let tasks = ref [] in
      let start = ref 0 in
      while !start < n do
        let lo = !start and hi = min n (!start + block_size) in
        tasks :=
          (fun () ->
            for i = lo to hi - 1 do
              f i
            done)
          :: !tasks;
        start := hi
      done;
      fork_join !tasks
    end

  let now () = P.Work.now ()

  let sleep d =
    if d > 0. then begin
      let tid = id () in
      Engine.callcc (fun k ->
          at (now () +. d) (fun () -> reschedule (k, tid));
          dispatch ())
    end

  let pool_procs () = !acquired

  let steals () =
    let (module Q) = !rq in
    Q.S.steals Q.q

  let steal_attempts () =
    let (module Q) = !rq in
    Q.S.steal_attempts Q.q

  let switches () = total (fun s -> s.switches)
end
