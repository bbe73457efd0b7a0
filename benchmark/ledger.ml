(* What one pass measures.  A pass child fills one ledger and prints it as
   a single JSON line; the parent process pools the lines of every pass. *)

type t = {
  mutable units : int;  (** timed units of work (the [host_s] unit) *)
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;
  samples : (string, float list) Hashtbl.t;  (** end-to-end samples *)
  sums : (string, float) Hashtbl.t;  (** per-layer accumulators *)
  layer : (string, float) Hashtbl.t;  (** per-layer values of the pass *)
  mutable diag : (string * Json.t) list;  (** diagnostics, newest first *)
  mutable ready : float;  (** wall clock when set-up and warm-up ended *)
  mutable ready_rss_kb : int;
}

let create () =
  {
    units = 0;
    attempted = 0;
    failed = 0;
    errors = [];
    samples = Hashtbl.create 8;
    sums = Hashtbl.create 64;
    layer = Hashtbl.create 64;
    diag = [];
    ready = 0.;
    ready_rss_kb = 0;
  }

let sample l name v =
  Hashtbl.replace l.samples name
    (v :: Option.value (Hashtbl.find_opt l.samples name) ~default:[])

let add l name v =
  Hashtbl.replace l.sums name
    (v +. Option.value (Hashtbl.find_opt l.sums name) ~default:0.)

let sum l name = Option.value (Hashtbl.find_opt l.sums name) ~default:0.
let set l name v = Hashtbl.replace l.layer name v
let diag l name v = l.diag <- (name, v) :: l.diag

(* One checked output: counts as attempted, and as failed unless [ok]. *)
let check l ok what =
  l.attempted <- l.attempted + 1;
  if not ok then begin
    l.failed <- l.failed + 1;
    if List.length l.errors < 20 then l.errors <- what :: l.errors
  end

(* Peak resident set of this process (VmHWM), in kB. *)
let peak_rss_kb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" Fun.id
    | _ -> scan ()
    | exception End_of_file -> 0
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(* ---- telemetry events, counted per category in traced passes --------- *)

let categories = Obs.Event.[ Sched; Proc; Lock; Gc; Sync; Select; Cml ]
let event_counts = Array.init (List.length categories) (fun _ -> Atomic.make 0)

let counting_sink =
  {
    Obs.Sink.emit =
      (fun e ->
        let c = Obs.Event.category_of e in
        Atomic.incr event_counts.(Option.get (List.find_index (( = ) c) categories)));
    flush = (fun () -> ());
  }

let events_total () = Array.fold_left (fun acc c -> acc + Atomic.get c) 0 event_counts

(* End of set-up and warm-up: what the warm-up counted is dropped, so the
   per-layer values cover the timed work only. *)
let mark_ready l =
  Hashtbl.reset l.sums;
  Array.iter (fun c -> Atomic.set c 0) event_counts;
  l.ready <- Unix.gettimeofday ();
  l.ready_rss_kb <- peak_rss_kb ()

(* ---- reference kernel ------------------------------------------------- *)

(* A fixed piece of Stdlib work (sort, hash table, list allocation, effect
   handler fibers, and on two domains an atomic ping-pong) that no change to
   the repo can touch.  Passes time it between units of work, on
   as many domains as the workload keeps busy, and the parent scales every
   host time by its run's median: the host this benchmark was built on
   changed speed by up to 30% over minutes, while host times divided by the
   kernel's time stayed within a few percent. *)
type _ Effect.t += Pause : unit Effect.t

let reference_kernel () =
  let n = 50_000 in
  let a = Array.init n (fun i -> (i * 7919) land 0xFFFFF) in
  Array.sort compare a;
  let h = Hashtbl.create 1024 in
  for i = 0 to n do
    Hashtbl.replace h (i land 4095) i
  done;
  let l = List.init n Fun.id in
  ignore (Sys.opaque_identity (List.fold_left ( + ) 0 (List.rev_map succ l)));
  (* fibers, as the platform's threads are: one effect round trip each *)
  for _ = 1 to n / 5 do
    Effect.Deep.match_with Effect.perform Pause
      {
        retc = Fun.id;
        exnc = raise;
        effc =
          (fun (type a) (e : a Effect.t) ->
            match e with
            | Pause -> Some (fun (k : (a, _) Effect.Deep.continuation) -> Effect.Deep.continue k ())
            | _ -> None);
      }
  done

(* One atomic bounced between two domains [rounds] times, as the domains
   backend's locks and run queues bounce theirs. *)
let ping_pong rounds =
  let turn = Atomic.make 0 in
  let wait_for v =
    while Atomic.get turn <> v do
      Domain.cpu_relax ()
    done
  in
  let other =
    Domain.spawn (fun () ->
        for i = 0 to rounds - 1 do
          wait_for ((2 * i) + 1);
          Atomic.set turn ((2 * i) + 2)
        done)
  in
  for i = 0 to rounds - 1 do
    Atomic.set turn ((2 * i) + 1);
    wait_for ((2 * i) + 2)
  done;
  Domain.join other

let time_reference l ~domains =
  let t0 = Unix.gettimeofday () in
  let others = List.init (domains - 1) (fun _ -> Domain.spawn reference_kernel) in
  reference_kernel ();
  List.iter Domain.join others;
  if domains > 1 then ping_pong 10_000;
  sample l "reference_s" (Unix.gettimeofday () -. t0)

(* ---- per-cell instrumentation ----------------------------------------- *)

(* Wraps each call into a platform's public entry points: counters reset
   before and read after the cell (so every count is scoped to the cell that
   produced it), host time, and the per-proc time attribution from
   [Stats.per_proc] — busy, idle, GC wait and queue wait against the
   [procs * elapsed] the cell had. *)
module Cells (P : Mp.Mp_intf.PLATFORM_INT) = struct
  let on_sim = String.length P.name >= 4 && String.sub P.name 0 4 = "sim:"

  (* the simulator runs on one host domain; real procs are domains *)
  let reference l =
    time_reference l ~domains:(if on_sim then 1 else P.Proc.max_procs ())

  let trace () =
    P.Telemetry.enable_memory ();
    P.Telemetry.attach_sink counting_sink

  let run l ~group ~procs f =
    Obs.Counters.reset P.Telemetry.counters;
    let t0 = Unix.gettimeofday () in
    let r = Spans.with_span ~group "cell" f in
    let host = Unix.gettimeofday () -. t0 in
    List.iter
      (fun (k, v) -> add l k (float_of_int v))
      (Obs.Counters.dump P.Telemetry.counters);
    let st = P.stats () in
    let used = Array.sub st.Mp.Stats.per_proc 0 procs in
    let total f = Array.fold_left (fun acc p -> acc +. f p) 0. used in
    add l "proc.capacity_s" (float_of_int procs *. st.Mp.Stats.elapsed);
    add l "proc.busy_s" (total (fun p -> p.Mp.Stats.busy));
    add l "proc.idle_s" (total (fun p -> p.Mp.Stats.idle));
    add l "proc.gc_wait_s" (total (fun p -> p.Mp.Stats.gc_wait));
    add l "proc.queue_wait_s" (total (fun p -> p.Mp.Stats.queue_wait));
    add l "bus.busy_s" st.Mp.Stats.bus_busy;
    add l "elapsed_s" st.Mp.Stats.elapsed;
    if on_sim then begin
      add l "sim.suspensions" (float_of_int st.Mp.Stats.suspensions);
      add l "sim.heap_ops" (float_of_int st.Mp.Stats.heap_ops);
      add l "sim.host_s" host;
      add l (Printf.sprintf "sim.host_s.p%d" procs) host
    end;
    (r, host)
end

(* ---- the per-layer values of a pass ----------------------------------- *)

let ratio a b = if b > 0. then a /. b else 0.

(* Counts are per timed unit of work, so they do not depend on how many
   units a pass runs; fractions are over the whole pass. *)
let finish_layers l =
  let per_unit name = ratio (sum l name) (float_of_int l.units) in
  let cap = sum l "proc.capacity_s" in
  let frac name = ratio (sum l name) cap in
  List.iter
    (fun (k, v) -> set l k v)
    [
      ("sched.switches", per_unit "sched.switches");
      ("sched.steals", per_unit "sched.steals");
      ("sched.steal_hit_ratio", ratio (sum l "sched.steal_hits") (sum l "sched.steal_attempts"));
      ("lock.acquires", per_unit "lock.acquires");
      ("lock.spins_per_acquire", ratio (sum l "lock.spins") (sum l "lock.acquires"));
      ("sync.blocks", per_unit "sync.blocks");
      ("cml.blocks", per_unit "cml.blocks");
      ("cml.wakeups", per_unit "cml.wakeups");
      ("server.queue_wait_s", per_unit "server.queue_wait_s");
      ("sim.suspensions", per_unit "sim.suspensions");
      ("sim.sched_decisions", per_unit "sim.sched_decisions");
      ("sim.heap_ops", per_unit "sim.heap_ops");
      ( "sim.coalesce_ratio",
        ratio (sum l "sim.coalesced_charges")
          (sum l "sim.coalesced_charges" +. sum l "sim.suspensions") );
      ("sim.idle_polls", per_unit "sim.idle_polls");
      ("sim.host_ns_per_decision", 1e9 *. ratio (sum l "sim.host_s") (sum l "sim.sched_decisions"));
      ("sim.host_s.p1", per_unit "sim.host_s.p1");
      ("sim.host_s.p16", per_unit "sim.host_s.p16");
      ("gc.pause_cycles", per_unit "gc.pause_cycles");
      ("gc.wait_cycles", per_unit "gc.wait_cycles");
      ("bus.busy_frac", ratio (sum l "bus.busy_s") (sum l "elapsed_s"));
      ("proc.busy_frac", frac "proc.busy_s");
      ("proc.idle_frac", frac "proc.idle_s");
      ("proc.gc_wait_frac", frac "proc.gc_wait_s");
      ("proc.queue_wait_frac", frac "proc.queue_wait_s");
      ( "proc.unaccounted_frac",
        if cap > 0. then
          1. -. ((sum l "proc.busy_s" +. sum l "proc.idle_s" +. sum l "proc.gc_wait_s") /. cap)
        else 0. );
      ( "engine.rss_kb_per_pass",
        float_of_int (peak_rss_kb () - l.ready_rss_kb) );
    ]

let to_json l =
  let floats xs = Json.Arr (List.rev_map (fun x -> Json.Num x) xs) in
  let obj tbl f =
    Json.Obj
      (Hashtbl.fold (fun k v acc -> (k, f v) :: acc) tbl []
      |> List.sort (fun (a, _) (b, _) -> compare a b))
  in
  Json.Obj
    [
      ("units", Json.Num (float_of_int l.units));
      ("attempted", Json.Num (float_of_int l.attempted));
      ("failed", Json.Num (float_of_int l.failed));
      ("errors", Json.Arr (List.rev_map (fun s -> Json.Str s) l.errors));
      ("ready", Json.Num l.ready);
      ("peak_rss_kb", Json.Num (float_of_int (peak_rss_kb ())));
      ("samples", obj l.samples floats);
      ("layer", obj l.layer (fun v -> Json.Num v));
      ("events", Json.Num (float_of_int (events_total ())));
      ( "events_by_category",
        Json.Obj
          (List.mapi
             (fun i c ->
               (Obs.Event.category_name c, Json.Num (float_of_int (Atomic.get event_counts.(i)))))
             categories) );
      ("diag", Json.Obj (List.rev l.diag));
    ]
