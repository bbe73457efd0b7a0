module Make (D : Mp_intf.DATUM) : Mp_intf.PLATFORM with type Proc.proc_datum = D.t =
struct
  let name = "uniproc"

  module Kont = Engine

  module Proc = struct
    type proc_datum = D.t
    type proc_state = PS of unit Engine.cont * proc_datum

    exception No_More_Procs = Mp_intf.No_More_Procs

    let datum = ref D.initial
    let acquire_proc (PS (_, _)) = raise No_More_Procs
    let release_proc () = Engine.leave (fun () -> Engine.Stop)
    let initial_datum = D.initial
    let get_datum () = !datum
    let set_datum d = datum := d
    let self () = 0
    let max_procs () = 1
    let live_procs () = 1
    let nodes () = 1
    let node_of _ = 0
  end

  module Telemetry = Mp_intf.Telemetry_of (struct
    let handle =
      Obs.Telemetry.create ~stream_of:(fun () -> 0) ~now_ts:Mp_intf.host_ns ()
  end)

  module Lock = struct
    type mutex_lock = { mutable held : bool }

    let spins = ref 0
    let c_acquires = Telemetry.counter "lock.acquires"
    let c_spins = Telemetry.counter "lock.spins"
    let mutex_lock () = { held = false }

    let try_lock l =
      if l.held then begin
        incr spins;
        Obs.Counters.incr c_spins;
        false
      end
      else begin
        l.held <- true;
        Obs.Counters.incr c_acquires;
        true
      end

    let lock l =
      (* With a single proc a contended lock can never be released by anyone
         else, so spinning would loop forever; fail fast instead. *)
      if not (try_lock l) then
        failwith "Mp_uniproc.Lock.lock: deadlock (lock already held on a uniprocessor)"

    let unlock l = l.held <- false
    let locked l f = Mp_intf.locked ~lock ~unlock l f
  end

  module Work = struct
    include Mp_intf.Free_work ()

    (* Single proc: if nothing is ready, nothing ever will be — but that is
       the caller's deadlock, not ours, so spin exactly as the old
       idle-loop fallback did. *)
    let idle_until ~ready =
      while not (ready ()) do
        ()
      done

    let queue_wait = ref 0.
    let note_queue_wait ~seconds = queue_wait := !queue_wait +. seconds
  end

  let last_elapsed = ref 0.
  let last_alloc_words = ref 0
  let last_gc_count = ref 0
  let running = ref false

  let run f =
    if !running then invalid_arg "Mp_uniproc.run: already running";
    running := true;
    let result = ref None in
    let escaped = ref None in
    let on_exn e =
      if !escaped = None then escaped := Some e;
      Engine.Stop
    in
    let t0 = Unix.gettimeofday () in
    let w0 = Gc.minor_words () in
    let g0 = Stats.host_collections () in
    if Telemetry.enabled () then
      Telemetry.emit (Obs.Event.Dispatch { proc = 0; clock = Telemetry.now_ts () });
    Fun.protect
      ~finally:(fun () ->
        running := false;
        last_elapsed := Unix.gettimeofday () -. t0;
        last_alloc_words := int_of_float (Gc.minor_words () -. w0);
        last_gc_count := Stats.host_collections () - g0;
        if Telemetry.enabled () then
          Telemetry.emit
            (Obs.Event.Freed { proc = 0; clock = Telemetry.now_ts () }))
      (fun () ->
        let root () = result := Some (f ()) in
        (match Engine.trampoline ~on_exn (Engine.Start root) with
        | Engine.Stop -> ()
        | _ -> raise Engine.Unhandled_action);
        Mp_intf.outcome ~platform:name ~escaped:!escaped !result)

  let stats () =
    let t = Stats.zero ~platform:name ~procs:1 in
    (* The single proc is running client code whenever the platform is. *)
    t.per_proc.(0).busy <- !last_elapsed;
    t.per_proc.(0).queue_wait <- !Work.queue_wait;
    t.per_proc.(0).lock_spins <- !Lock.spins;
    t.per_proc.(0).alloc_words <- !last_alloc_words;
    { t with elapsed = !last_elapsed; gc_count = !last_gc_count }

  let reset_stats () =
    last_elapsed := 0.;
    last_alloc_words := 0;
    last_gc_count := 0;
    Work.queue_wait := 0.;
    Lock.spins := 0
end

module Int () = Make (Mp_intf.Int_datum)
