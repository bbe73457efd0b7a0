open Mp

(* Scheduler directive: the suspend body has already re-queued (or freed)
   the current proc; return control to the simulation loop. *)
type Engine.action += A_yield

(* A parked idle poller ([Work.idle_until]): the fiber suspended once,
   and the loop services its per-quantum readiness checks and idle charges
   without resuming it.  The park's first poll always runs.  After a failed
   poll the poller sleeps: it leaves the ready heap, or waits in it at its
   first poll at or past the declared timer deadline, and a wake hint
   ([Work.wake_idle], a proc's acquire or release, a GC trigger) re-keys
   it at its first poll after the writer's position.  When it reaches the
   heap minimum it books the polls it skipped as failed idle quanta, then
   polls for real.  Every real poll reads shared state at exactly the
   (clock, id) position where the always-suspend machine would have
   dispatched the polling fiber, and by the wake contract every skipped
   poll would have failed. *)
type Engine.action += A_poll of (unit -> bool) * unit Engine.cont

module Make
    (C : sig
      val config : Sim_config.t
    end)
    (D : Mp.Mp_intf.DATUM) =
struct
  let config = C.config
  let name = "sim:" ^ config.name

  let run_ahead = config.mode <> Reference
  let checked = config.mode = Checked

  module Kont = Engine

  type pstate = Free | Ready | Current | Gc_waiting

  type sproc = {
    id : int;
    mutable clock : int;
    mutable state : pstate;
    mutable pending : Engine.action;
        (* what the next dispatch does; meaningful while [Ready] or
           [Gc_waiting] *)
    mutable datum : D.t;
    mutable busy : int;
    mutable idle : int;
    mutable gc_wait : int;
    mutable spins : int;
    mutable alloc_words : int;
    mutable ran_ahead : int;
        (* cycles accumulated inline (run-ahead fast path) since the last
           real suspension; flushed to the trace when the proc suspends *)
    mutable wake_at : int;
        (* a parked poller polls for real at its first poll with
           [clock >= wake_at]; the polls before it are skipped.  At most
           [clock] unless the proc sleeps; [max_int] while it sleeps with
           neither a hint nor a deadline *)
    mutable slot : int;  (* index in [sleepers], or -1 *)
  }

  (* Lock representation, lifted out of [module Lock] so the scheduler's
     lock state machine (below) can name it.  Every probe/release is an RMW
     on the lock word's cache [line], routed by its sharer set. *)
  type sim_lock = { mutable held : bool; line : Interconnect.line }

  (* One op of a work program ([Work.step]'s interleaved compute/alloc
     slices): the unit at which the reference machine charges and
     suspends. *)
  type work_op = W_charge of int | W_alloc of int

  (* What to do once a parked lock episode acquires the lock: resume the
     fiber ([K_lock]), or run a charge-free critical section, pay the
     unlock, and only then resume ([K_locked], the [Lock.locked] fusion). *)
  type lock_kont =
    | K_lock of unit Engine.cont
    | K_locked of (unit -> unit) * unit Engine.cont

  (* Where a lock episode stopped: acquired, or at the reference machine's
     next dispatch of the spinning proc — with probe [n]'s charge applied
     and its held-test pending, or with the retry delay after failed probe
     [n] applied and the next probe pending. *)
  type lock_stop = Won | Test_pending of int | Probe_pending of int

  (* Parked episodes serviced by the scheduler without re-entering the
     fiber.  Each records exactly which reference-machine dispatch it
     stands in for, so virtual time is bit-identical while a whole episode
     costs at most one effect-handler suspension. *)
  type Engine.action +=
    | A_work of work_op list * unit Engine.cont
        (* previous op's charge applied; remaining ops pending *)
    | A_lock of sim_lock * lock_stop * lock_kont
    | A_unlock of sim_lock * unit Engine.cont
        (* unlock charge + bus applied; the release write is pending *)

  let fresh_proc id =
    {
      id;
      clock = 0;
      state = Free;
      pending = Engine.Stop;
      datum = D.initial;
      busy = 0;
      idle = 0;
      gc_wait = 0;
      spins = 0;
      alloc_words = 0;
      ran_ahead = 0;
      wake_at = 0;
      slot = -1;
    }

  let procs = Array.init config.procs fresh_proc

  (* Ready procs, keyed (clock, id): the scheduler takes the minimum instead
     of scanning all procs.  Invariant: a proc is in the heap iff its state
     is [Ready], except a sleeper with no wake key ([wake_at = max_int]),
     which is [Ready] but out of it.  A sleeper in the heap is keyed at
     [wake_at] (at [clock] on a [Checked] machine, which keeps every
     poll). *)
  let ready = Ready_heap.create ~ids:config.procs
  let current = ref 0
  let cur () = procs.(!current)

  (* Sleeping pollers, in no order: the ids in [0 .. n_sleepers - 1],
     each proc's index in its [slot].  A proc joins after a failed real
     poll and leaves at its next real poll or at a wake hint, so a hint
     costs O(sleepers), not O(procs). *)
  let sleepers = Array.make config.procs 0
  let n_sleepers = ref 0

  (* The deadline last declared through [Work.idle_deadline], in
     [Work.now]'s seconds. *)
  let deadline = ref infinity
  let quantum = Sim_config.idle_quantum_cycles
  let ic = Interconnect.create config

  (* GC cost model: all region accounting (admission, trigger, episode
     pricing) lives behind [Gc_model.MODEL]; the scheduler only parks
     procs while [gc_pending] is set and prices the barrier via
     [GcM.episode]. *)
  module GcM = (val Gc_model.instance config.gc
                      {
                        Gc_model.procs = config.procs;
                        region_words = config.gc_region_words;
                        survival = Sim_config.gc_survival;
                        cycles_per_word = config.gc_cycles_per_word;
                        fixed_cycles = config.gc_fixed_cycles;
                        minor_fixed_cycles = config.gc_minor_fixed_cycles;
                        barrier_cycles = config.gc_barrier_cycles;
                      })

  let gc_pending = GcM.pending
  let gc_collections () = GcM.minor_collections () + GcM.major_collections ()
  let gc_pause_cycles () = GcM.pause_cycles ()
  let gc_wait_cycles () = Array.fold_left (fun acc p -> acc + p.gc_wait) 0 procs
  let max_clock = ref 0
  let sched_decisions_ct = ref 0
  let coalesced_ct = ref 0
  let idle_parks_ct = ref 0
  let idle_polls_ct = ref 0
  let lock_acquires_ct = ref 0
  let susp_at_start = ref 0
  let escaped : exn option ref = ref None
  let poll_hook = ref (fun () -> ())
  let running = ref false

  module Telemetry = Mp_intf.Telemetry_of (struct
    (* Single stream: the simulator multiplexes every proc over one domain,
       so emission is already serialized.  Timestamps are the current
       proc's virtual clock, keeping traces deterministic. *)
    let handle =
      Obs.Telemetry.create
        ~stream_of:(fun () -> 0)
        ~now_ts:(fun () -> (cur ()).clock)
        ()
  end)

  (* Construction at every emit site is guarded by [tracing] so a quiet run
     allocates no events, charges no virtual time and takes no extra
     suspensions. *)
  let tracing = Telemetry.enabled
  let emit = Telemetry.emit
  let observe_clock n = if n > !max_clock then max_clock := n

  (* ------------------------------------------------------------------ *)
  (* Ready-set maintenance.                                             *)
  (* ------------------------------------------------------------------ *)

  let check_heap () = if checked then assert (Ready_heap.valid ready)

  (* A suspension flushes any run-ahead accumulation: later inline charges
     belong to the next dispatch. *)
  let flush_run_ahead p =
    if p.ran_ahead > 0 then begin
      if tracing () then
        emit
          (Obs.Event.Coalesced
             { proc = p.id; clock = p.clock; cycles = p.ran_ahead });
      p.ran_ahead <- 0
    end

  let set_ready p a =
    flush_run_ahead p;
    p.pending <- a;
    p.state <- Ready;
    Ready_heap.push ready ~clock:p.clock ~id:p.id;
    check_heap ()

  let resume c = Engine.Resume (c, ())

  (* ------------------------------------------------------------------ *)
  (* Sleeping pollers.                                                   *)
  (* ------------------------------------------------------------------ *)

  (* [s]'s first poll, among [s.clock + k * quantum] (k >= 0), whose key
     follows [(clock, id)]: the first a write at that position can reach
     in the reference machine, which dispatches in (clock, id) order. *)
  let first_poll_after s ~clock ~id =
    let limit = if s.id > id then clock else clock + 1 in
    if s.clock >= limit then s.clock
    else s.clock + ((limit - s.clock + quantum - 1) / quantum * quantum)

  (* [Work.now ()] at clock [c] is at or past [d]: the predicate's
     [d <= now ()], in [Sim_config.cycles_to_seconds]' own arithmetic.
     Returns a bool so that no float is boxed. *)
  let reached c d = float_of_int c /. (config.mhz *. 1.0e6) >= d

  (* [s]'s first poll at or past the declared deadline, so its
     predicate's timer test first holds there; [max_int] when there is
     none, or it lies past the heap's packing bound.  The search starts at
     the last poll before the truncated target: no earlier poll reaches
     the deadline, so the first that does is the one it finds.  Allocates
     nothing, like every sleep and wake path. *)
  let deadline_poll s =
    let d = !deadline in
    let target = d *. config.mhz *. 1.0e6 in
    if reached s.clock d then s.clock
    else if not (target < float_of_int (Ready_heap.max_clock ready - quantum))
    then max_int
    else begin
      let k = max 0 (int_of_float target - s.clock - 1) / quantum in
      let c = ref (s.clock + (k * quantum)) in
      while not (reached !c d) do
        c := !c + quantum
      done;
      !c
    end

  (* [p], the heap minimum, just failed a real poll and was charged its
     quantum: it sleeps until its deadline poll or a wake hint. *)
  let sleep p =
    p.wake_at <- deadline_poll p;
    p.slot <- !n_sleepers;
    sleepers.(!n_sleepers) <- p.id;
    incr n_sleepers;
    if checked then Ready_heap.rekey_min ready ~clock:p.clock
    else if p.wake_at < max_int then Ready_heap.rekey_min ready ~clock:p.wake_at
    else ignore (Ready_heap.pop_unchecked ready)

  let unsleep p =
    let last = !n_sleepers - 1 in
    let moved = sleepers.(last) in
    sleepers.(p.slot) <- moved;
    procs.(moved).slot <- p.slot;
    n_sleepers := last;
    p.slot <- -1

  (* The wake hint of a write at [(clock, id)]: every sleeper polls for
     real at its first poll after it, or earlier if it was due anyway.
     Charge-free; the writer is the current proc, whose key precedes the
     whole heap, so every new key does too. *)
  let wake_sleepers ~clock ~id =
    for i = 0 to !n_sleepers - 1 do
      let s = procs.(sleepers.(i)) in
      let k = first_poll_after s ~clock ~id in
      if k < s.wake_at then begin
        if not checked then
          if s.wake_at = max_int then Ready_heap.push ready ~clock:k ~id:s.id
          else Ready_heap.decrease ready ~clock:k ~id:s.id;
        s.wake_at <- k
      end;
      s.slot <- -1
    done;
    n_sleepers := 0;
    check_heap ()

  (* A write at [p]'s position, such as a proc freed there. *)
  let wake_from p = wake_sleepers ~clock:p.clock ~id:p.id

  (* ------------------------------------------------------------------ *)
  (* The cost function.                                                  *)
  (* ------------------------------------------------------------------ *)

  let advance p clock' ~idle =
    let d = clock' - p.clock in
    if idle then p.idle <- p.idle + d else p.busy <- p.busy + d;
    p.clock <- clock';
    observe_clock clock'

  (* Every simulated charge: [cpu] cycles of work, then a [bytes]-byte
     transfer on [route] ({!Interconnect.transact}), booked as busy or
     idle time; bus queueing stalls count as busy (the proc is stalled on
     memory, not idle).  The charge is always applied at once, at [p]'s
     current position.  The result says whether it was {e inline}: the
     run-ahead gate passed — [admit] holds, no GC is pending and [p]'s
     post-charge (clock, id) key still precedes every ready proc's, so the
     scheduler would hand control straight back to [p] and the
     suspend/dispatch round trip the reference machine takes here is a
     virtual-time no-op.  The gate reads only the GC flag and the ready
     heap, which the charge does not touch, so it is evaluated after
     applying.  On [false] the caller gives up the proc: the fiber side
     suspends ([yield_unless]), the scheduler side re-queues, and either
     way the next dispatch is where the reference machine's would be. *)
  let apply ~admit p ~cpu ~bytes ~route ~idle =
    let clock = p.clock in
    advance p (Interconnect.transact ic ~proc:p.id ~clock ~cpu ~bytes ~route) ~idle;
    let inline =
      admit && run_ahead
      && (not !gc_pending)
      && Ready_heap.precedes_min ready ~clock:p.clock ~id:p.id
    in
    if inline then begin
      p.ran_ahead <- p.ran_ahead + (p.clock - clock);
      incr coalesced_ct
    end;
    inline

  let busy p n = apply ~admit:true p ~cpu:n ~bytes:0 ~route:0 ~idle:false

  (* One RMW on a shared word: routed by the word's sharer set, which it
     claims exclusive for [p]'s node. *)
  let rmw p ln ~cpu ~bytes =
    apply ~admit:true p ~cpu ~bytes
      ~route:(Interconnect.claim ic ln ~proc:p.id)
      ~idle:false

  (* A probe or release of a platform lock: an RMW on the lock word. *)
  let lock_rmw p l ~cpu = rmw p l.line ~cpu ~bytes:Sim_config.lock_bus_bytes

  (* Allocation is spread over the computation it belongs to: one charge
     per small slice, so bus occupancy interleaves with other procs instead
     of arriving as one long FCFS burst. *)
  let alloc_slice_words = 256

  (* One allocation slice, routed through the GC model.  It may run inline
     only if the model admits it (it cannot fill the allocation region: a
     GC trigger must park the proc).  Otherwise [alloc] may set
     [gc_pending] and, when the model ran an independent minor collection
     ([minor_pp]), its pause is charged to this proc alone — the other
     procs keep running, which is the whole point of per-proc minor
     heaps. *)
  let alloc_slice p words =
    let clock = p.clock in
    let inline =
      apply
        ~admit:(GcM.admit ~proc:p.id ~words)
        p
        ~cpu:(int_of_float (config.alloc_cycles_per_word *. float_of_int words))
        ~bytes:(words * Sim_config.word_bytes) ~route:0 ~idle:false
    in
    p.alloc_words <- p.alloc_words + words;
    let was_pending = !gc_pending in
    let pause, collected = GcM.alloc ~proc:p.id ~words in
    (* A trigger parks every poller at the barrier, where the reference
       machine's heap holds it: at its first poll after this slice's
       dispatch, the position before the slice's charge. *)
    if !gc_pending && not was_pending then wake_sleepers ~clock ~id:p.id;
    if pause > 0 then begin
      if tracing () then
        emit
          (Obs.Event.Gc_start
             {
               clock = p.clock;
               region_words = collected;
               kind = Minor;
               waiters = 0;
             });
      p.clock <- p.clock + pause;
      p.gc_wait <- p.gc_wait + pause;
      observe_clock p.clock;
      if tracing () then
        emit (Obs.Event.Gc_end { clock = p.clock; duration = pause })
    end;
    inline

  let work_step p = function
    | W_charge n -> n <= 0 || busy p n
    | W_alloc w -> w <= 0 || alloc_slice p w

  (* Run a work program inline while the gate allows.  [Some rest] when an
     op stopped at a dispatch, [rest] being the ops after it. *)
  let rec work_run p = function
    | [] -> None
    | op :: rest -> if work_step p op then work_run p rest else Some rest

  (* The delay before probe [attempt]: the retry period plus a fixed
     deterministic jitter of under [jitter_mod] cycles, breaking the
     phase-locking a fixed period can produce under the min-clock
     scheduler. *)
  let jitter_proc = 37
  let jitter_attempt = 13
  let jitter_mod = 101

  let retry_delay proc attempt =
    config.spin_retry_cycles
    + (((proc * jitter_proc) + (attempt * jitter_attempt)) mod jitter_mod)

  let note_acquired p attempt =
    incr lock_acquires_ct;
    if tracing () then begin
      emit (Obs.Event.Lock_acquired { proc = p.id; clock = p.clock });
      if attempt > 0 then
        emit
          (Obs.Event.Lock_contended
             { proc = p.id; clock = p.clock; spins = attempt })
    end

  (* A spin-lock episode, shared by the fiber ([Lock.lock]) and the
     scheduler (a parked [A_lock]): probe and test inline while the gate
     allows, and stop where the reference machine would next dispatch. *)
  let rec lock_probe p l attempt =
    if lock_rmw p l ~cpu:config.try_lock_cycles then lock_test p l attempt
    else Test_pending attempt

  and lock_test p l attempt =
    if l.held then begin
      p.spins <- p.spins + 1;
      let attempt = attempt + 1 in
      if busy p (retry_delay p.id attempt) then lock_probe p l attempt
      else Probe_pending attempt
    end
    else begin
      l.held <- true;
      note_acquired p attempt;
      Won
    end

  (* ------------------------------------------------------------------ *)
  (* Simulation loop.                                                    *)
  (* ------------------------------------------------------------------ *)

  let on_exn e =
    if !escaped = None then escaped := Some e;
    Engine.Stop

  (* Run one proc from its pending action until it yields back. *)
  let run_proc p action =
    match Engine.trampoline ~on_exn action with
    | Engine.Stop ->
        p.state <- Free;
        wake_from p
    | A_yield -> ()
    | _ -> raise Engine.Unhandled_action

  let run_gc () =
    let gc_start =
      Array.fold_left
        (fun acc p ->
          if p.state = Gc_waiting then max acc p.clock else acc)
        0 procs
    in
    let waiters =
      Array.fold_left
        (fun acc p -> if p.state = Gc_waiting then acc + 1 else acc)
        0 procs
    in
    let ep = GcM.episode ~waiters in
    let dur = ep.Gc_model.duration in
    let finish = gc_start + dur in
    if tracing () then
      emit
        (Obs.Event.Gc_start
           {
             clock = gc_start;
             region_words = ep.Gc_model.region_words;
             kind = ep.Gc_model.kind;
             waiters;
           });
    (* Release before clearing gc_pending so [set_ready]'s heap pushes see a
       consistent world; clocks all equal [finish], so dispatch order among
       the released procs is by id, as with the scan. *)
    Array.iter
      (fun p ->
        if p.state = Gc_waiting then begin
          p.gc_wait <- p.gc_wait + (finish - p.clock);
          p.clock <- finish;
          set_ready p p.pending
        end)
      procs;
    observe_clock finish;
    if tracing () then
      emit (Obs.Event.Gc_end { clock = finish; duration = dur });
    GcM.finish_episode ep

  (* One scheduling decision: [p] is handed its pending action. *)
  let note_dispatch p =
    incr sched_decisions_ct;
    if tracing () then emit (Obs.Event.Dispatch { proc = p.id; clock = p.clock })

  (* Take [p], the heap minimum, out of the ready set into [state]. *)
  let take p state =
    ignore (Ready_heap.pop_unchecked ready);
    check_heap ();
    p.state <- state

  (* One failed idle quantum of a poller: the reference machine's
     re-queue after a poll that saw nothing. *)
  let idle_quantum p =
    advance p (p.clock + quantum) ~idle:true;
    incr coalesced_ct

  (* A sleeper reached the heap minimum at its wake key: book the polls
     it skipped, each a failed idle quantum, without running them. *)
  let catch_up p =
    let skipped = (p.wake_at - p.clock) / quantum in
    idle_polls_ct := !idle_polls_ct + skipped;
    coalesced_ct := !coalesced_ct + skipped;
    advance p p.wake_at ~idle:true

  (* Every proc that is not free sleeps with nothing left to wake it: no
     hint can come, since no proc runs.  Their fibers are ended, and the
     run raises [Deadlock] naming them. *)
  let deadlock () =
    let stuck = List.filter (fun p -> p.state <> Free) (Array.to_list procs) in
    List.iter
      (fun p ->
        (match p.pending with A_poll (_, k) -> Engine.discard k | _ -> ());
        p.pending <- Engine.Stop;
        p.state <- Free;
        p.slot <- -1)
      stuck;
    n_sleepers := 0;
    while not (Ready_heap.is_empty ready) do
      ignore (Ready_heap.pop_unchecked ready)
    done;
    if !escaped = None then
      escaped :=
        Some
          (Mp_intf.Deadlock
             (Printf.sprintf
                "%s: procs %s sleep in Work.idle_until with no hinted write \
                 or deadline left to wake them"
                name
                (String.concat ", "
                   (List.map (fun p -> string_of_int p.id) stuck))))

  (* One idle poll of [p], a parked poller at the heap minimum: the
     reference machine's dispatch of the polling fiber at this (clock, id)
     position.  If the predicate holds, [p] leaves the heap and its fiber
     resumes; otherwise [p] is charged one idle quantum and sleeps — no
     push, no allocation and no effect-handler suspension.  A [Checked]
     machine keeps polling a sleeper every quantum, and each poll the
     sleep rule skips must fail. *)
  let poll p rdy k =
    note_dispatch p;
    incr idle_polls_ct;
    let r = rdy () in
    if p.clock < p.wake_at then begin
      if r then
        failwith
          (Printf.sprintf
             "%s: proc %d's idle predicate turned true at clock %d with no \
              wake hint (Work.wake_idle) or declared deadline"
             name p.id p.clock);
      idle_quantum p;
      Ready_heap.rekey_min ready ~clock:p.clock;
      check_heap ();
      if
        p.wake_at = max_int
        && Array.for_all (fun q -> q.state = Free || q.wake_at = max_int) procs
      then deadlock ()
    end
    else begin
      (* The equivalence argument needs a pure predicate: a second
         evaluation at the same position must agree. *)
      if checked then assert (rdy () = r);
      if p.slot >= 0 then unsleep p;
      if r then begin
        take p Current;
        run_proc p (resume k)
      end
      else begin
        idle_quantum p;
        sleep p;
        check_heap ()
      end
    end

  (* The scheduler side of a lock episode: resume the fiber once
     the lock is won (for [K_locked], after the critical section and the
     unlock), else re-queue at the position where the episode stopped. *)
  let lock_continue p l stop kont =
    match (stop, kont) with
    | Won, K_lock k -> run_proc p (resume k)
    | Won, K_locked (run, k) ->
        run ();
        if lock_rmw p l ~cpu:config.unlock_cycles then begin
          l.held <- false;
          run_proc p (resume k)
        end
        else set_ready p (A_unlock (l, k))
    | (Test_pending _ | Probe_pending _), _ -> set_ready p (A_lock (l, stop, kont))

  let dispatch p a =
    take p Current;
    note_dispatch p;
    match a with
    | A_work (ops, k) -> (
        match work_run p ops with
        | None -> run_proc p (resume k)
        | Some rest -> set_ready p (A_work (rest, k)))
    | A_lock (l, Test_pending n, kont) ->
        lock_continue p l (lock_test p l n) kont
    | A_lock (l, Probe_pending n, kont) ->
        lock_continue p l (lock_probe p l n) kont
    | A_unlock (l, k) ->
        l.held <- false;
        run_proc p (resume k)
    | a -> run_proc p a

  let any_gc_waiting () = Array.exists (fun p -> p.state = Gc_waiting) procs

  let rec loop () =
    if not (Ready_heap.is_empty ready) then begin
      let p = procs.(Ready_heap.peek_unchecked ready) in
      assert (p.state = Ready);
      if p.clock < p.wake_at && not checked then catch_up p;
      if !gc_pending then
        (* Park ready procs at the barrier in min-clock order, exactly as
           the scan did, until none remain and the collection can run. *)
        take p Gc_waiting
      else begin
        current := p.id;
        (match p.pending with
        | A_poll (rdy, k) -> poll p rdy k
        | a -> dispatch p a);
        if tracing () && p.state = Free then
          emit (Obs.Event.Freed { proc = p.id; clock = p.clock })
      end;
      loop ()
    end
    else if any_gc_waiting () then begin
      (* Barrier complete: every non-free proc is parked at a clean
         point.  (Also reached when gc_pending was consumed but stragglers
         remain parked — run_gc releases them.) *)
      run_gc ();
      loop ()
    end
    else if !n_sleepers > 0 then deadlock ()
    (* else: all procs free — simulation over *)

  (* ------------------------------------------------------------------ *)
  (* Fiber side and the platform interface.                             *)
  (* ------------------------------------------------------------------ *)

  (* Give up the proc until the scheduler dispatches it with [act c]. *)
  let park p act =
    Engine.suspend (fun c ->
        set_ready p (act c);
        A_yield)

  (* After an [apply]: an applied-but-not-inline charge must yield here, so
     the fiber resumes at the reference machine's next dispatch. *)
  let yield_unless inline p = if not inline then park p resume

  let charge_busy n =
    if n > 0 then
      let p = cur () in
      yield_unless (busy p n) p

  let charge_idle n =
    if n > 0 then
      let p = cur () in
      yield_unless (apply ~admit:true p ~cpu:n ~bytes:0 ~route:0 ~idle:true) p

  module Proc = struct
    type proc_datum = D.t
    type proc_state = PS of unit Engine.cont * proc_datum

    exception No_More_Procs = Mp_intf.No_More_Procs

    let acquire_proc (PS (cont, datum)) =
      let ok =
        Engine.suspend (fun c ->
            let p = cur () in
            advance p (p.clock + config.acquire_proc_cycles) ~idle:false;
            let free = Array.find_opt (fun q -> q.state = Free && q.id <> p.id) procs in
            match free with
            | Some q ->
                q.datum <- datum;
                (* [live_procs] changes at the dispatch, before the charge *)
                wake_sleepers ~clock:(p.clock - config.acquire_proc_cycles) ~id:p.id;
                let start = max q.clock p.clock in
                q.idle <- q.idle + (start - q.clock);
                q.clock <- start;
                set_ready q (resume cont);
                if tracing () then
                  emit
                    (Obs.Event.Acquired { proc = q.id; by = p.id; clock = p.clock });
                set_ready p (Engine.Resume (c, true));
                A_yield
            | None ->
                set_ready p (Engine.Resume (c, false));
                A_yield)
      in
      if not ok then raise No_More_Procs

    let release_proc () =
      Engine.leave (fun () ->
          let p = cur () in
          flush_run_ahead p;
          p.state <- Free;
          wake_from p;
          A_yield)

    let initial_datum = D.initial
    let get_datum () = (cur ()).datum
    let set_datum d = (cur ()).datum <- d
    let self () = !current
    let max_procs () = config.procs

    let live_procs () =
      Array.fold_left
        (fun acc p -> if p.state = Free then acc else acc + 1)
        0 procs

    let nodes () = Interconnect.nodes ic
    let node_of = Interconnect.node_of ic
  end

  module Lock = struct
    type mutex_lock = sim_lock

    let mutex_lock () = { held = false; line = Interconnect.line () }

    (* Charge the probe first (a suspension point), then test-and-set with
       no intervening suspension — atomic in virtual time.  When the
       charge runs inline no other proc can run between charge and test
       either, so the atomicity is the same. *)
    let try_lock l =
      let p = cur () in
      yield_unless (lock_rmw p l ~cpu:config.try_lock_cycles) p;
      if l.held then begin
        p.spins <- p.spins + 1;
        false
      end
      else begin
        l.held <- true;
        note_acquired p 0;
        true
      end

    (* One lock episode run from the fiber: inline as far as the gate
       allows, then at most one suspension that hands the rest of the
       episode (and for [K_locked] the critical section and unlock too) to
       the scheduler.  [true] when the episode was parked. *)
    let lock_fast l kont_of =
      let p = cur () in
      match lock_probe p l 0 with
      | Won -> false
      | stop ->
          park p (fun c -> A_lock (l, stop, kont_of c));
          true

    (* Reference spin loop: the always-suspend oracle, used when the
       run-ahead gate is disabled.  Up to two suspensions per spin. *)
    let lock_ref l =
      let attempt = ref 0 in
      while not (try_lock l) do
        incr attempt;
        charge_busy (retry_delay !current !attempt)
      done;
      if !attempt > 0 && tracing () then
        let q = cur () in
        emit
          (Obs.Event.Lock_contended
             { proc = q.id; clock = q.clock; spins = !attempt })

    let lock l =
      if run_ahead then ignore (lock_fast l (fun c -> K_lock c))
      else lock_ref l

    let unlock l =
      let p = cur () in
      yield_unless (lock_rmw p l ~cpu:config.unlock_cycles) p;
      l.held <- false

    (* lock + charge-free critical section + unlock, fused into a single
       parked episode: under contention the whole sequence costs at most
       one suspension instead of one per probe, retry and unlock. *)
    let locked l f =
      if run_ahead then begin
        let res = ref None in
        let run () = res := Some (try Ok (f ()) with e -> Error e) in
        let parked = lock_fast l (fun c -> K_locked (run, c)) in
        if not parked then begin
          (* acquired inline: the fiber pays for the section and unlock,
             exactly as the reference below *)
          run ();
          unlock l
        end;
        match !res with
        | Some (Ok v) -> v
        | Some (Error e) -> raise e
        | None -> assert false
      end
      else Mp_intf.locked ~lock:lock_ref ~unlock l f
  end

  (* Run a work program from the fiber: ops execute inline while the gate
     allows; the first op that stops suspends once and hands the remainder
     to the scheduler, which services it at the reference positions.  With
     the gate disabled this is the reference per-op loop. *)
  let run_ops ops =
    let p = cur () in
    if run_ahead then
      match work_run p ops with
      | None -> ()
      | Some rest -> park p (fun c -> A_work (rest, c))
    else List.iter (fun op -> yield_unless (work_step p op) p) ops

  module Work = struct
    let charge n = charge_busy n

    (* Contended shared words outside the platform lock (the lock-algorithm
       family's cells, run-queue heads): same sharer-set model as
       [sim_lock].  [read_line] is charge-free by contract — the read's
       cost was already charged — so it only grows the sharer set. *)
    type line = Interconnect.line

    let line = Interconnect.line
    let read_line ln = Interconnect.share ic ln ~proc:!current

    let write_line ln ~bytes =
      if bytes > 0 then
        let p = cur () in
        yield_unless (rmw p ln ~cpu:0 ~bytes) p

    (* Interleave compute and allocation slices so the generated bus
       traffic is spread across the work, as real allocation is. *)
    let step ?alloc_words ~instrs () =
      let words =
        match alloc_words with Some w -> w | None -> instrs / 5
      in
      let cycles = int_of_float (float_of_int instrs *. config.cpi) in
      let slices = max 1 ((words + alloc_slice_words - 1) / alloc_slice_words) in
      let cyc_per = cycles / slices and w_per = words / slices in
      let ops = ref [] in
      for i = slices downto 1 do
        ops :=
          W_charge
            (if i = 1 then cycles - (cyc_per * (slices - 1)) else cyc_per)
          :: W_alloc (if i = 1 then words - (w_per * (slices - 1)) else w_per)
          :: !ops
      done;
      run_ops !ops;
      !poll_hook ()

    let poll () = !poll_hook ()
    let set_poll_hook f = poll_hook := f

    (* Fast path: park once and let the loop service the per-quantum
       checks ([poll]).  The park charges the first quantum, so the first
       check happens one quantum after the call — exactly where the
       reference polling loop evaluates it — and it always runs: a running
       proc is never asleep, so [wake_at <= clock]. *)
    let idle_until ~ready =
      if run_ahead then begin
        let p = cur () in
        advance p (p.clock + quantum) ~idle:true;
        incr idle_parks_ct;
        park p (fun c -> A_poll (ready, c))
      end
      else begin
        let rec go () =
          charge_idle quantum;
          if not (ready ()) then go ()
        in
        go ()
      end

    let wake_idle () = wake_from (cur ())
    let idle_deadline t = deadline := t

    let now () = Sim_config.cycles_to_seconds config (cur ()).clock

    (* Virtual seconds, kept per proc outside the cycle accounting: the
       blocking path already charged the cycles as idle time, this only
       re-labels them for [Stats.queue_wait]. *)
    let queue_wait_secs = Array.make config.procs 0.

    let note_queue_wait ~seconds =
      let id = (cur ()).id in
      queue_wait_secs.(id) <- queue_wait_secs.(id) +. seconds
  end

  let reset () =
    Array.iteri (fun i _ -> procs.(i) <- fresh_proc i) procs;
    Array.fill Work.queue_wait_secs 0 config.procs 0.;
    Ready_heap.clear ready;
    n_sleepers := 0;
    deadline := infinity;
    Interconnect.reset ic;
    GcM.reset ();
    max_clock := 0;
    sched_decisions_ct := 0;
    coalesced_ct := 0;
    idle_parks_ct := 0;
    idle_polls_ct := 0;
    lock_acquires_ct := 0;
    susp_at_start := Engine.suspensions ();
    escaped := None;
    poll_hook := (fun () -> ())

  (* Publish the machine counters through the telemetry registry once per
     run — after the loop, so nothing is charged on the simulated path. *)
  let fold_counters () =
    let set name v = Obs.Counters.set (Telemetry.counter name) v in
    set "sim.makespan_cycles" !max_clock;
    set "sim.sched_decisions" !sched_decisions_ct;
    set "sim.coalesced_charges" !coalesced_ct;
    set "sim.idle_parks" !idle_parks_ct;
    set "sim.idle_polls" !idle_polls_ct;
    set "gc.collections" (gc_collections ());
    set "gc.minor_count" (GcM.minor_collections ());
    set "gc.major_count" (GcM.major_collections ());
    set "gc.pause_cycles" (gc_pause_cycles ());
    set "gc.wait_cycles" (gc_wait_cycles ());
    set "bus.bytes" (Interconnect.bytes ic);
    set "bus.local_bytes" (Interconnect.bytes ic - Interconnect.remote_bytes ic);
    set "bus.remote_bytes" (Interconnect.remote_bytes ic);
    set "bus.busy_cycles" (Interconnect.bus_busy_cycles ic);
    set "link.busy_cycles" (Interconnect.link_busy_cycles ic);
    set "cache.invalidations" (Interconnect.invalidations ic);
    set "lock.acquires" !lock_acquires_ct;
    set "lock.spins" (Array.fold_left (fun acc p -> acc + p.spins) 0 procs)

  let run f =
    if !running then invalid_arg "Mp_sim.run: already running";
    running := true;
    reset ();
    let result = ref None in
    set_ready procs.(0) (Engine.Start (fun () -> result := Some (f ())));
    current := 0;
    Fun.protect
      ~finally:(fun () ->
        running := false;
        fold_counters ())
      (fun () ->
        loop ();
        Mp_intf.outcome ~platform:name ~escaped:!escaped !result)

  let stats () =
    let t = Stats.zero ~platform:name ~procs:config.procs in
    let secs = Sim_config.cycles_to_seconds config in
    Array.iteri
      (fun i p ->
        let s = t.per_proc.(i) in
        s.busy <- secs p.busy;
        s.idle <- secs p.idle;
        s.gc_wait <- secs p.gc_wait;
        s.queue_wait <- Work.queue_wait_secs.(i);
        s.lock_spins <- p.spins;
        s.alloc_words <- p.alloc_words)
      procs;
    {
      t with
      elapsed = secs !max_clock;
      gc_time = secs (gc_pause_cycles ());
      gc_count = gc_collections ();
      bus_busy = secs (Interconnect.bus_busy_cycles ic);
      bus_bytes = Interconnect.bytes ic;
      sched_decisions = !sched_decisions_ct;
      suspensions = Engine.suspensions () - !susp_at_start;
      heap_ops = Ready_heap.ops ready;
    }

  let reset_stats () = reset ()

  module Machine = struct
    let config = config
    let makespan_cycles () = !max_clock
    let coalesced_charges () = !coalesced_ct
    let gc_cycles () = gc_pause_cycles ()
    let gc_minor_collections () = GcM.minor_collections ()
    let gc_major_collections () = GcM.major_collections ()
    let remote_bytes () = Interconnect.remote_bytes ic
    let invalidations () = Interconnect.invalidations ic
    let bus_busy_cycles () = Interconnect.bus_busy_cycles ic
  end
end

module Int
    (C : sig
      val config : Sim_config.t
    end)
    () =
  Make (C) (Mp_intf.Int_datum)
