module Make
    (C : sig
      val max_procs : int
    end)
    (D : Mp_intf.DATUM) : Mp_intf.PLATFORM with type Proc.proc_datum = D.t = struct
  let name = "domains"
  let max_procs = max 1 C.max_procs

  module Kont = Engine

  type slot_state = Free | Busy

  type slot = {
    id : int;
    mutable datum : D.t;
    mutable state : slot_state;
    mutable inbox : Engine.action option;
    mutable domain : unit Domain.t option;
    mutable stats : Stats.proc_stats;
    mutable acquires : int;
    mutable spins : int;
        (* lock acquisitions and failed probes of the current delivery,
           folded into [lock.acquires] and [lock.spins] when it ends: the
           registry cells are shared by every domain, these fields by none *)
  }

  let m = Mutex.create ()
  let cond = Condition.create ()
  let quit = ref false
  let running = ref false
  let escaped : exn option Atomic.t = Atomic.make None

  (* Padded: each slot is written on every dispatch of its own proc
     ([datum], [acquires], [spins]). *)
  let slots =
    Array.init max_procs (fun id ->
        Mp_intf.padded
        {
          id;
          datum = D.initial;
          state = Free;
          inbox = None;
          domain = None;
          stats = Stats.make_proc_stats ();
          acquires = 0;
          spins = 0;
        })

  let proc_key = Domain.DLS.new_key (fun () -> -1)

  module Telemetry = Mp_intf.Telemetry_of (struct
    (* One stream per proc: each domain records only into its own ring, so
       recording stays single-writer and lock-free.  Emissions from outside
       any proc fall back to stream 0 (see [Obs.Telemetry.emit]). *)
    let handle =
      Obs.Telemetry.create ~streams:max_procs
        ~stream_of:(fun () -> Domain.DLS.get proc_key)
        ~now_ts:Mp_intf.host_ns ()
  end)

  let c_acquires = Telemetry.counter "lock.acquires"
  let c_spins = Telemetry.counter "lock.spins"

  let my_slot () =
    let id = Domain.DLS.get proc_key in
    if id < 0 then invalid_arg "Mp_domains: not running on an MP proc";
    slots.(id)

  let on_exn e =
    ignore (Atomic.compare_and_set escaped None (Some e));
    Engine.Stop

  (* Run one delivery: execute [action] until this proc stops, then mark the
     slot free.  Busy time and minor-heap allocation (a per-domain counter
     in OCaml 5, so the delta is this proc's own) are accounted to the
     slot. *)
  let serve slot action =
    let t0 = Unix.gettimeofday () in
    let w0 = Gc.minor_words () in
    if Telemetry.enabled () then
      Telemetry.emit
        (Obs.Event.Dispatch { proc = slot.id; clock = Telemetry.now_ts () });
    (match Engine.trampoline ~on_exn action with
    | Engine.Stop -> ()
    | _ -> raise Engine.Unhandled_action);
    Obs.Counters.add c_acquires slot.acquires;
    slot.acquires <- 0;
    Obs.Counters.add c_spins slot.spins;
    slot.spins <- 0;
    slot.stats.busy <- slot.stats.busy +. (Unix.gettimeofday () -. t0);
    slot.stats.alloc_words <-
      slot.stats.alloc_words + int_of_float (Gc.minor_words () -. w0);
    if Telemetry.enabled () then
      Telemetry.emit
        (Obs.Event.Freed { proc = slot.id; clock = Telemetry.now_ts () });
    Mutex.lock m;
    slot.state <- Free;
    Condition.broadcast cond;
    Mutex.unlock m

  let worker id () =
    Domain.DLS.set proc_key id;
    let slot = slots.(id) in
    let rec loop () =
      Mutex.lock m;
      let w0 = Unix.gettimeofday () in
      while slot.inbox = None && not !quit do
        Condition.wait cond m
      done;
      slot.stats.idle <- slot.stats.idle +. (Unix.gettimeofday () -. w0);
      match slot.inbox with
      | None ->
          (* quit requested *)
          Mutex.unlock m
      | Some action ->
          slot.inbox <- None;
          Mutex.unlock m;
          serve slot action;
          loop ()
    in
    loop ()

  module Proc = struct
    type proc_datum = D.t
    type proc_state = PS of unit Engine.cont * proc_datum

    exception No_More_Procs = Mp_intf.No_More_Procs

    let acquire_proc (PS (cont, datum)) =
      Mutex.lock m;
      let rec find i =
        if i >= max_procs then None
        else if slots.(i).state = Free then Some slots.(i)
        else find (i + 1)
      in
      match find 0 with
      | None ->
          Mutex.unlock m;
          raise No_More_Procs
      | Some slot ->
          slot.state <- Busy;
          slot.datum <- datum;
          slot.inbox <- Some (Engine.Resume (cont, ()));
          if slot.domain = None && slot.id <> 0 then
            slot.domain <- Some (Domain.spawn (worker slot.id));
          Condition.broadcast cond;
          Mutex.unlock m

    let release_proc () = Engine.leave (fun () -> Engine.Stop)
    let initial_datum = D.initial
    let get_datum () = (my_slot ()).datum
    let set_datum d = (my_slot ()).datum <- d
    let self () = Domain.DLS.get proc_key
    let max_procs () = max_procs

    let live_procs () =
      Mutex.lock m;
      let n =
        Array.fold_left
          (fun acc s -> if s.state = Busy then acc + 1 else acc)
          0 slots
      in
      Mutex.unlock m;
      n

    let nodes () = 1
    let node_of _ = 0
  end

  module Lock = struct
    type mutex_lock = bool Atomic.t

    let mutex_lock () = Atomic.make false

    (* Inside a run every lock is taken during some proc's delivery, which
       counts it; a lock taken from outside any proc counts directly. *)
    let try_lock l =
      let ok = not (Atomic.exchange l true) in
      (if ok then
         let id = Domain.DLS.get proc_key in
         if !running && id >= 0 then
           slots.(id).acquires <- slots.(id).acquires + 1
         else Obs.Counters.incr c_acquires);
      ok

    let lock l =
      let spins = ref 0 in
      while not (try_lock l) do
        incr spins;
        while Atomic.get l do
          Domain.cpu_relax ()
        done
      done;
      if !spins > 0 then begin
        let slot = my_slot () in
        slot.stats.lock_spins <- slot.stats.lock_spins + !spins;
        slot.spins <- slot.spins + !spins;
        if Telemetry.enabled () then
          Telemetry.emit
            (Obs.Event.Lock_contended
               { proc = slot.id; clock = Telemetry.now_ts (); spins = !spins })
      end

    let unlock l = Atomic.set l false
    let locked l f = Mp_intf.locked ~lock ~unlock l f
  end

  module Work = struct
    include Mp_intf.Free_work ()

    let idle_until ~ready =
      while not (ready ()) do
        Domain.cpu_relax ()
      done

    (* The wait happened on the calling domain, so the slot lookup
       attributes it to the right proc — this is what lets server-tail
       attribution work on real hardware, not just under the simulator. *)
    let note_queue_wait ~seconds =
      let stats = (my_slot ()).stats in
      stats.queue_wait <- stats.queue_wait +. seconds
  end

  let last_elapsed = ref 0.
  let last_gc_count = ref 0

  let all_free_no_inbox () =
    Array.for_all (fun s -> s.state = Free && s.inbox = None) slots

  (* Serve actions delivered to the root slot (slot 0 may be re-acquired
     after the root proc releases itself), and return once every proc has
     been released. *)
  let root_service_loop () =
    let rec loop () =
      Mutex.lock m;
      match slots.(0).inbox with
      | Some action ->
          slots.(0).inbox <- None;
          Mutex.unlock m;
          serve slots.(0) action;
          loop ()
      | None ->
          if all_free_no_inbox () then Mutex.unlock m
          else begin
            Condition.wait cond m;
            Mutex.unlock m;
            loop ()
          end
    in
    loop ()

  let teardown () =
    Mutex.lock m;
    quit := true;
    Condition.broadcast cond;
    Mutex.unlock m;
    Array.iter
      (fun s ->
        match s.domain with
        | Some d ->
            Domain.join d;
            s.domain <- None
        | None -> ())
      slots;
    quit := false

  let run f =
    if !running then invalid_arg "Mp_domains.run: already running";
    running := true;
    Atomic.set escaped None;
    Array.iter
      (fun s ->
        s.state <- Free;
        s.inbox <- None;
        s.datum <- D.initial)
      slots;
    Domain.DLS.set proc_key 0;
    (* Written on whichever proc finishes the root fiber, read here once
       that proc's slot has been freed under [m]. *)
    let result = ref None in
    let root_thunk () = result := Some (f ()) in
    slots.(0).state <- Busy;
    let t0 = Unix.gettimeofday () in
    let g0 = Stats.host_collections () in
    Fun.protect
      ~finally:(fun () ->
        running := false;
        last_elapsed := Unix.gettimeofday () -. t0;
        last_gc_count := Stats.host_collections () - g0)
      (fun () ->
        serve slots.(0) (Engine.Start root_thunk);
        Fun.protect ~finally:teardown root_service_loop;
        Mp_intf.outcome ~platform:name ~escaped:(Atomic.get escaped) !result)

  (* Whole per-proc records: [stats] hands out copies, so a later run
     cannot change a returned value, and [reset_stats] gives every slot a
     fresh one. *)
  let stats () =
    {
      (Stats.zero ~platform:name ~procs:max_procs) with
      elapsed = !last_elapsed;
      gc_count = !last_gc_count;
      per_proc = Array.map (fun s -> { s.stats with busy = s.stats.busy }) slots;
    }

  let reset_stats () =
    last_elapsed := 0.;
    last_gc_count := 0;
    Array.iter (fun s -> s.stats <- Stats.make_proc_stats ()) slots
end

module Int
    (C : sig
      val max_procs : int
    end)
    () =
  Make (C) (Mp_intf.Int_datum)
