(* The exploration backend.  One host thread; procs are cooperative fibers
   scheduled by the exploration loop.  A proc runs atomically from one
   serialization point to the next (a "slice"); the loop's only job is to
   decide, at each decision index, which enabled proc performs its pending
   visible operation.  Forcing those decisions from a prefix array gives
   deterministic replay; enumerating alternatives under a preemption bound
   gives CHESS-style systematic exploration; drawing them from splitmix64
   gives seeded fuzzing. *)

module Engine = Mp.Engine

type failure = {
  error : exn;
  schedule : int list;
  seed : string option;
  trace : Obs.Event.t list;
}

type report = {
  schedules : int;
  truncated : int;
  pruned : int;
  capped : bool;
  failure : failure option;
}

let pp_failure fmt f =
  Format.fprintf fmt "@[<v>failure: %s@;" (Printexc.to_string f.error);
  (match f.seed with
  | Some s ->
      Format.fprintf fmt
        "seed: %s (replay with mp_repro check --mode random --seed %s --runs 1)@;"
        s s
  | None -> ());
  Format.fprintf fmt "schedule (%d forced choices): [%s]@;"
    (List.length f.schedule)
    (String.concat "; " (List.map string_of_int f.schedule));
  Format.fprintf fmt "trace (%d decisions):@;" (List.length f.trace);
  List.iter (fun e -> Format.fprintf fmt "  %a@;" Obs.Event.pp e) f.trace;
  Format.fprintf fmt "@]"

module type S = sig
  include Mp.Mp_intf.PLATFORM

  module Prims : Mp.Mp_intf.PRIMS

  val spawn : (unit -> unit) -> unit

  val set_nodes : int -> unit
  (** Group the procs into [n] contiguous interconnect nodes (reported by
      [Proc.nodes]/[Proc.node_of]) for node-aware scheduler scenarios;
      clamped to [1 .. max_procs].  Must be called outside [run]. *)

  val line_sharers : Work.line -> int
  (** Tracked sharer set of a cache line (bit n = node n holds it). *)

  module Explore : sig
    val dfs :
      ?bound:int ->
      ?max_schedules:int ->
      ?max_steps:int ->
      ?faults:Check_intf.faults ->
      ?stop:(unit -> bool) ->
      ?dpor:bool ->
      (unit -> unit) ->
      report

    val random :
      ?seed:int64 ->
      ?runs:int ->
      ?max_steps:int ->
      ?faults:Check_intf.faults ->
      (unit -> unit) ->
      report

    val replay :
      schedule:int list ->
      ?max_steps:int ->
      ?faults:Check_intf.faults ->
      (unit -> unit) ->
      failure option
  end
end

module Make (C : sig
  val max_procs : int
end) (D : Mp.Mp_intf.DATUM) =
struct
  let name = "check"
  let n_procs = max 1 C.max_procs

  (* ---- visible-operation protocol ---------------------------------- *)

  type lock = { lid : int; mutable held : bool }
  type wait = W_lock of lock | W_pred of (unit -> bool)
  type point_kind = K_plain | K_yield

  type Engine.action +=
    | A_point of Check_intf.opdesc * point_kind * unit Engine.cont
    | A_block of Check_intf.opdesc * wait * unit Engine.cont

  (* ---- per-run state ------------------------------------------------ *)

  type pstate = Free | Ready | Blocked

  type proc = {
    id : int;
    mutable state : pstate;
    mutable pending : Engine.action option;
    mutable wait : wait option;
    mutable datum : D.t;
    mutable yielded : bool;
    mutable op : Check_intf.opdesc;  (* the pending visible operation *)
  }

  let start_op = Check_intf.desc "start" Check_intf.obj_global Check_intf.Global

  let procs =
    Array.init n_procs (fun id ->
        {
          id;
          state = Free;
          pending = None;
          wait = None;
          datum = D.initial;
          yielded = false;
          op = start_op;
        })

  let running = ref false
  let cur = ref 0
  let nsteps = ref 0

  (* The simulator's interconnect, for its topology ([Proc.nodes],
     [Proc.node_of]) and its sharer-set code ([Work] lines), so scenarios
     explore the code the simulator runs.  Scenarios set the node count
     (outside [run]) to explore node-aware scheduler behavior; it is
     read-only during exploration, so replay stays deterministic.  Nothing
     here is priced. *)
  let topology n =
    Sim.Interconnect.create
      { (Sim.Sim_config.numa ~nodes:n ()) with procs = n_procs }

  let ic = ref (topology 1)

  let set_nodes n =
    if !running then invalid_arg "Mp_check.set_nodes: run in progress";
    ic := topology (max 1 (min n n_procs))

  let failed : exn option ref = ref None
  let last_chosen = ref (-1)
  let preempts = ref 0
  let spins = ref 0

  (* The decisions of the current run, newest first.  A decision's
     [s_choices] is the fairness-restricted choice set (yielded procs
     excluded while a non-yielded proc is enabled); [s_prev] and
     [s_prev_continuable] record whether switching away from the previous
     proc costs a preemption, so the DFS can price alternatives without
     re-running the prefix.  [s_stutter] marks a decision where every
     offered proc was parked at a spin-yield point: the choice only
     reorders spin iterations, so the DFS does not branch there — without
     this cut a pair of overlapping spin loops makes exploration
     enumerate "spin one more time" forever. *)
  let decisions_rev : Dpor.step list ref = ref []

  (* Exploration configuration, installed around each run. *)
  type policy = step:int -> choices:int array -> default:int -> int

  let default_only : policy = fun ~step:_ ~choices:_ ~default -> default
  let current_policy : policy ref = ref default_only
  let current_faults = ref Check_intf.no_faults
  let current_max_steps = ref 10_000

  (* Sleep-set configuration, installed around each run by the DPOR
     driver: from decision [current_sleep_from] on, [sleep_now] holds the
     procs whose scheduling here would only commute with an
     already-explored trace.  The default policy is redirected away from
     sleeping procs; if every enabled choice is asleep the run aborts
     with [Check_intf.Sleep_blocked] (a prune, not a failure).  Executing
     an op wakes every sleeper whose pending op depends on it. *)
  let current_sleep_from = ref max_int
  let current_sleep0 = ref 0
  let sleep_now = ref 0

  (* Fault-injection site counters (reset per run).  Probabilistic faults
     are keyed on (proc, object, per-key occurrence), NOT on a global
     site counter: the n-th probe of lock L by proc p draws the same
     verdict wherever the scheduler places it, so DPOR-pruned runs and
     shrink replays (which reorder unrelated ops) see identical fault
     behaviour. *)
  let n_acquire = ref 0
  let fault_occ : (int * int, int ref) Hashtbl.t = Hashtbl.create 32

  let pct_fault pct ~obj =
    pct > 0
    && begin
         let key = (!cur, obj) in
         let occ =
           match Hashtbl.find_opt fault_occ key with
           | Some r -> r
           | None ->
               let r = ref 0 in
               Hashtbl.add fault_occ key r;
               r
         in
         incr occ;
         let h =
           Sched_seed.hash2
             (Sched_seed.hash2
                (Sched_seed.hash2 !current_faults.Check_intf.fault_seed !cur)
                obj)
             !occ
         in
         Int64.to_int (Int64.rem (Int64.shift_right_logical h 1) 100L) < pct
       end

  (* Locks and cells created OUTSIDE a run (functor-application time, e.g.
     hwpool's hardware-lock pool or CML's global lock when instantiated at
     module level) persist across runs, so they register a reset hook that
     restores their initial value at run start — a truncated run may leave
     them held/dirty.  Objects created during a run are fresh per run and
     need no hook.  Ids come from two counters so trace labels are stable
     under replay: persistent objects number from 0, per-run objects from a
     base that resets every run. *)
  let persistent_resets : (unit -> unit) list ref = ref []
  let persistent_ids = ref 0
  let run_ids = ref 1_000_000

  let fresh_id () =
    if !running then (
      let i = !run_ids in
      incr run_ids;
      i)
    else (
      let i = !persistent_ids in
      incr persistent_ids;
      i)

  let register_reset f =
    if not !running then persistent_resets := f :: !persistent_resets

  (* ---- serialization points ---------------------------------------- *)

  let sched_point ~op kind =
    if !running then Engine.suspend (fun k -> A_point (op, kind, k))

  let block_on ~op w =
    if !running then Engine.suspend (fun k -> A_block (op, w, k))
    else failwith "Mp_check: blocking operation outside run"

  (* ---- platform modules --------------------------------------------- *)

  module Kont = Engine

  module Telemetry = Mp.Mp_intf.Telemetry_of (struct
    let handle =
      Obs.Telemetry.create ~stream_of:(fun () -> !cur) ~now_ts:(fun () -> !nsteps) ()
  end)

  module Lock = struct
    type mutex_lock = lock

    let mutex_lock () =
      let l = { lid = fresh_id (); held = false } in
      register_reset (fun () -> l.held <- false);
      l

    let lbl what acc l =
      Check_intf.desc (Printf.sprintf "lock.%s L%d" what l.lid) l.lid acc

    let try_lock l =
      if not !running then
        if l.held then false
        else begin
          l.held <- true;
          true
        end
      else begin
        sched_point ~op:(lbl "try" Check_intf.Rmw l) K_plain;
        if l.held then begin
          incr spins;
          false
        end
        else if
          pct_fault !current_faults.Check_intf.try_lock_fail_pct ~obj:l.lid
        then begin
          incr spins;
          false
        end
        else begin
          l.held <- true;
          true
        end
      end

    (* Acquisition blocks on the lock rather than spinning: the proc is
       enabled exactly when the lock is free, and resuming it is atomic
       with the re-check-and-set, so every acquisition order is explored
       without unbounded spin schedules.  (The spinning algorithms are
       still explored — via the lock functors over [Prims].) *)
    let rec lock l =
      if not !running then
        if l.held then failwith "Mp_check.Lock.lock: lock held outside run"
        else l.held <- true
      else begin
        block_on ~op:(lbl "acquire" Check_intf.Rmw l) (W_lock l);
        if l.held then lock l else l.held <- true
      end

    let unlock l =
      if not !running then l.held <- false
      else begin
        sched_point ~op:(lbl "release" Check_intf.Write l) K_plain;
        l.held <- false
      end

    let locked l f = Mp.Mp_intf.locked ~lock ~unlock l f
  end

  (* Instrumented atomic cells. *)
  module Prims = struct
    type 'a cell = { cid : int; mutable v : 'a }

    let lbl what acc c =
      Check_intf.desc (Printf.sprintf "cell.%s c%d" what c.cid) c.cid acc

    let make v0 =
      let c = { cid = fresh_id (); v = v0 } in
      register_reset (fun () -> c.v <- v0);
      c

    let get c =
      sched_point ~op:(lbl "get" Check_intf.Read c) K_plain;
      c.v

    let set c x =
      sched_point ~op:(lbl "set" Check_intf.Write c) K_plain;
      c.v <- x

    let exchange c x =
      sched_point ~op:(lbl "xchg" Check_intf.Rmw c) K_plain;
      let old = c.v in
      c.v <- x;
      old

    let compare_and_set c expected x =
      sched_point ~op:(lbl "cas" Check_intf.Rmw c) K_plain;
      if c.v == expected then begin
        c.v <- x;
        true
      end
      else false

    let fetch_and_add c n =
      sched_point ~op:(lbl "faa" Check_intf.Rmw c) K_plain;
      let old = c.v in
      c.v <- old + n;
      old

    (* Deliberately NOT a serialization point: [unsafe_peek] backs
       observation-only idle predicates, so exploring schedules around it
       would only blow up the state space without adding interleavings a
       real algorithm step could distinguish. *)
    let unsafe_peek c = c.v

    let yield_op label =
      Check_intf.desc label Check_intf.obj_local Check_intf.Yield

    let pause () = sched_point ~op:(yield_op "spin.pause") K_yield

    let pause_n _n =
      sched_point ~op:(yield_op "spin.backoff") K_yield;
      for _ = 1 to !current_faults.Check_intf.backoff_boost do
        sched_point ~op:(yield_op "spin.backoff+") K_yield
      done

    let on_spin () = incr spins
  end

  module Proc = struct
    type proc_datum = D.t
    type proc_state = PS of unit Engine.cont * proc_datum

    exception No_More_Procs = Mp.Mp_intf.No_More_Procs

    let self () = !cur
    let max_procs () = n_procs

    let live_procs () =
      Array.fold_left (fun n p -> if p.state = Free then n else n + 1) 0 procs

    let nodes () = Sim.Interconnect.nodes !ic
    let node_of p = Sim.Interconnect.node_of !ic p

    let acquire_proc (PS (k, d)) =
      sched_point
        ~op:
          (Check_intf.desc "proc.acquire" Check_intf.obj_procpool
             Check_intf.Rmw)
        K_plain;
      incr n_acquire;
      (match !current_faults.Check_intf.fail_acquire_at with
      | Some n when n = !n_acquire -> raise No_More_Procs
      | _ -> ());
      let rec find i =
        if i >= n_procs then raise No_More_Procs
        else if procs.(i).state = Free then procs.(i)
        else find (i + 1)
      in
      let p = find 0 in
      p.state <- Ready;
      p.pending <- Some (Engine.Resume (k, ()));
      p.wait <- None;
      p.yielded <- false;
      p.op <-
        Check_intf.desc
          (Printf.sprintf "proc.start p%d" p.id)
          Check_intf.obj_global Check_intf.Global;
      p.datum <- d

    let release_proc () =
      sched_point
        ~op:
          (Check_intf.desc "proc.release" Check_intf.obj_procpool
             Check_intf.Rmw)
        K_plain;
      Engine.leave (fun () -> Engine.Stop)

    let initial_datum = D.initial
    let get_datum () = procs.(!cur).datum
    let set_datum d = procs.(!cur).datum <- d
  end

  module Work = struct
    let hook = ref (fun () -> ())
    let step ?alloc_words:_ ~instrs:_ () = ()
    let charge _ = ()

    (* Lines carry no cost here, but the sharing protocol is still worth
       exploring: scenarios read the sharer set back ([line_sharers]) to
       check the claim/invalidate discipline. *)
    type line = Sim.Interconnect.line

    let line = Sim.Interconnect.line
    let read_line ln = Sim.Interconnect.share !ic ln ~proc:!cur
    let write_line ln ~bytes:_ =
      ignore (Sim.Interconnect.claim !ic ln ~proc:!cur)

    let poll () =
      sched_point
        ~op:(Check_intf.desc "work.poll" Check_intf.obj_global Check_intf.Global)
        K_plain;
      !hook ()

    let set_poll_hook f = hook := f

    let idle_until ~ready =
      if not (ready ()) then
        block_on
          ~op:
            (Check_intf.desc "work.idle_until" Check_intf.obj_global
               Check_intf.Global)
          (W_pred ready)

    (* A blocked waiter re-evaluates its predicate at every step, so the
       simulator's wake hints are no-ops here, not serialization points:
       they add no schedules to the exploration. *)
    let wake_idle () = ()
    let idle_deadline _ = ()
    let now () = float_of_int !nsteps *. 0.001

    (* Accounting only — not a scheduling point, so it adds no schedules
       to the exploration. *)
    let queue_wait = Array.make (Array.length procs) 0.

    let note_queue_wait ~seconds =
      queue_wait.(!cur) <- queue_wait.(!cur) +. seconds
  end

  (* Scenario-side accessor (Work.line is abstract through PLATFORM). *)
  let line_sharers = Sim.Interconnect.sharers

  let spawn f =
    Proc.acquire_proc
      (Proc.PS
         ( Mp.Kont_util.cont_of_thunk
             ~on_return:(fun () -> Proc.release_proc ())
             f,
           D.initial ))

  (* ---- the exploration loop ----------------------------------------- *)

  let on_exn e =
    if !failed = None then failed := Some e;
    Engine.Stop

  (* Run a proc's pending action to its next serialization point.  The
     control transfers of the engine's trampoline ([Start], [Resume],
     [Raise]) happen WITHIN the slice, not as decisions. *)
  let exec_slice p =
    cur := p.id;
    p.yielded <- false;
    let action =
      match p.pending with
      | Some a -> a
      | None -> invalid_arg "Mp_check: scheduled a proc with nothing to run"
    in
    p.pending <- None;
    if p.state = Blocked then begin
      p.state <- Ready;
      p.wait <- None
    end;
    match Engine.trampoline ~on_exn action with
    | Engine.Stop -> p.state <- Free
    | A_point (op, kind, k) ->
        p.pending <- Some (Engine.Resume (k, ()));
        p.op <- op;
        p.state <- Ready;
        p.yielded <- kind = K_yield
    | A_block (op, w, k) ->
        p.pending <- Some (Engine.Resume (k, ()));
        p.op <- op;
        p.state <- Blocked;
        p.wait <- Some w
    | _ -> raise Engine.Unhandled_action

  let is_enabled p =
    match p.state with
    | Free -> false
    | Ready -> true
    | Blocked -> (
        match p.wait with
        | Some (W_lock l) -> not l.held
        | Some (W_pred f) -> f ()
        | None -> false)

  (* Enabled procs, restricted for fairness: while any non-yielded proc is
     enabled, procs whose last point was a yield (spin-wait pauses) are not
     offered — the CHESS fair-scheduler rule that keeps spin loops from
     generating unbounded schedules.  When only yielded procs remain they
     are all offered (someone has to run). *)
  let choice_set () =
    let en = ref [] in
    for i = n_procs - 1 downto 0 do
      if is_enabled procs.(i) then en := i :: !en
    done;
    match List.filter (fun i -> not procs.(i).yielded) !en with
    | [] -> Array.of_list !en
    | preferred -> Array.of_list preferred

  (* Non-preemptive default: keep running the previous proc while it can
     continue; otherwise round-robin to the next enabled proc.  Under this
     policy alone a run costs zero preemptions, so the preemption count of
     any explored schedule is exactly its number of forced switches. *)
  let default_choice choices =
    let prev = !last_chosen in
    let prev_continuable =
      prev >= 0 && procs.(prev).state = Ready && not procs.(prev).yielded
    in
    if prev_continuable && Array.exists (fun i -> i = prev) choices then prev
    else begin
      let best = ref (-1) in
      Array.iter
        (fun i -> if i > prev && (!best = -1 || i < !best) then best := i)
        choices;
      if !best >= 0 then !best else Array.fold_left min choices.(0) choices
    end

  let reset_run_state () =
    Array.iter
      (fun p ->
        p.state <- Free;
        p.pending <- None;
        p.wait <- None;
        p.datum <- D.initial;
        p.yielded <- false;
        p.op <- start_op)
      procs;
    List.iter (fun f -> f ()) !persistent_resets;
    run_ids := 1_000_000;
    Work.hook := (fun () -> ());
    cur := 0;
    nsteps := 0;
    failed := None;
    decisions_rev := [];
    preempts := 0;
    last_chosen := -1;
    sleep_now := 0;
    Hashtbl.reset fault_occ;
    n_acquire := 0

  let run f =
    if !running then invalid_arg "Mp_check.run: already running";
    reset_run_state ();
    running := true;
    let result = ref None in
    let p0 = procs.(0) in
    p0.state <- Ready;
    p0.pending <- Some (Engine.Start (fun () -> result := Some (f ())));
    p0.op <-
      Check_intf.desc "root.start" Check_intf.obj_global Check_intf.Global;
    Fun.protect
      ~finally:(fun () -> running := false)
      (fun () ->
        let rec loop () =
          if Option.is_some !failed then ()
          else begin
            let choices = choice_set () in
            if Array.length choices = 0 then begin
              if Proc.live_procs () > 0 then
                failed :=
                  Some
                    (Mp.Mp_intf.Deadlock
                       (Printf.sprintf
                          "mp_check: no enabled proc at decision %d (%d procs \
                           still live)"
                          !nsteps (Proc.live_procs ())))
            end
            else if !nsteps >= !current_max_steps then
              failed := Some Check_intf.Truncated
            else begin
              let default = default_choice choices in
              let chosen = !current_policy ~step:!nsteps ~choices ~default in
              (* a forced proc that is not enabled here (shrunk schedule
                 from a diverged universe) falls back to the default *)
              let chosen =
                if Array.exists (fun i -> i = chosen) choices then chosen
                else default
              in
              (* Sleep-set engagement (DPOR): from [current_sleep_from]
                 on, the default region may not schedule a sleeping proc
                 — running one reproduces a commuted permutation of an
                 already-explored trace.  Redirect to an awake choice; if
                 all are asleep the whole run is such a permutation, so
                 abort it as a prune.  The forced region (prefix + alt)
                 is exempt: the driver never forces a sleeping proc. *)
              if !nsteps = !current_sleep_from then
                sleep_now := !current_sleep0;
              let engaged = !nsteps >= !current_sleep_from in
              let chosen, sleep_blocked =
                if
                  engaged
                  && !nsteps > !current_sleep_from
                  && !sleep_now land (1 lsl chosen) <> 0
                then begin
                  let awake =
                    Array.of_seq
                      (Seq.filter
                         (fun i -> !sleep_now land (1 lsl i) = 0)
                         (Array.to_seq choices))
                  in
                  if Array.length awake = 0 then (chosen, true)
                  else (default_choice awake, false)
                end
                else (chosen, false)
              in
              if sleep_blocked then begin
                failed := Some Check_intf.Sleep_blocked;
                loop ()
              end
              else begin
                let prev = !last_chosen in
                let prev_continuable =
                  prev >= 0 && procs.(prev).state = Ready
                  && not procs.(prev).yielded
                in
                let od = procs.(chosen).op in
                decisions_rev :=
                  {
                    Dpor.s_proc = chosen;
                    s_label = od.Check_intf.label;
                    s_obj = od.Check_intf.obj;
                    s_access = od.Check_intf.access;
                    s_choices = choices;
                    s_stutter =
                      Array.for_all (fun i -> procs.(i).yielded) choices;
                    s_preempts_before = !preempts;
                    s_prev = prev;
                    s_prev_continuable = prev_continuable;
                    s_sleep = (if engaged then !sleep_now else 0);
                  }
                  :: !decisions_rev;
                if prev_continuable && chosen <> prev then incr preempts;
                last_chosen := chosen;
                incr nsteps;
                (try exec_slice procs.(chosen)
                 with e -> if !failed = None then failed := Some e);
                (* wake sleepers whose pending op depends on what just
                   ran: their next transition no longer commutes with
                   the trace, so scheduling them is a fresh schedule *)
                if engaged && !sleep_now <> 0 then
                  for q = 0 to n_procs - 1 do
                    if
                      !sleep_now land (1 lsl q) <> 0
                      && procs.(q).state <> Free
                      && Check_intf.depends od procs.(q).op
                    then sleep_now := !sleep_now land lnot (1 lsl q)
                  done;
                loop ()
              end
            end
          end
        in
        loop ();
        (* A run stopped early (a prune, truncation, a failure or a
           deadlock) leaves procs suspended.  End their fibers, with
           [running] already false so that unwinding takes no
           serialization point. *)
        running := false;
        Array.iter
          (fun p ->
            match p.pending with
            | Some (Engine.Resume (k, _)) -> (
                try Engine.discard k
                with e -> if !failed = None then failed := Some e)
            | _ -> ())
          procs;
        Mp.Mp_intf.outcome ~platform:name ~escaped:!failed !result)

  let stats () =
    let t = Mp.Stats.zero ~platform:name ~procs:n_procs in
    t.per_proc.(0).lock_spins <- !spins;
    Array.iteri (fun i w -> t.per_proc.(i).queue_wait <- w) Work.queue_wait;
    { t with elapsed = Work.now () }

  let reset_stats () =
    spins := 0;
    Array.fill Work.queue_wait 0 (Array.length Work.queue_wait) 0.

  (* ---- exploration drivers ------------------------------------------ *)

  module Explore = struct
    let forced_policy forced : policy =
     fun ~step ~choices:_ ~default ->
      if step < Array.length forced then forced.(step) else default

    (* [body] is a scenario thunk that itself calls [run] exactly once.
       Returns what escaped the run and its decisions. *)
    let run_one ~policy ?(sleep_from = max_int) ?(sleep0 = 0) ~faults
        ~max_steps body =
      decisions_rev := [];
      current_policy := policy;
      current_faults := faults;
      current_max_steps := max_steps;
      current_sleep_from := sleep_from;
      current_sleep0 := sleep0;
      let err = (try body (); None with e -> Some e) in
      current_policy := default_only;
      current_sleep_from := max_int;
      (err, Array.of_list (List.rev !decisions_rev))

    let schedule_of ds = Array.to_list (Array.map (fun d -> d.Dpor.s_proc) ds)

    let trace_of ds =
      Array.to_list
        (Array.mapi
           (fun i d ->
             Obs.Event.Step { proc = d.Dpor.s_proc; clock = i; op = d.s_label })
           ds)

    (* Shrink the schedule of a failing run (decisions [ds0]): first
       bisect to a shortest failing prefix (the default-policy suffix
       usually reproduces), then drop single decisions to a fixpoint.
       Every candidate is verified by replay before being adopted, so
       divergence under removal (forced choices reinterpreted
       positionally, with default fallback) can only cost us minimality,
       never soundness. *)
    let shrink ~faults ~max_steps body error0 ds0 =
      let schedule0 = schedule_of ds0 in
      let attempts = ref 0 in
      let budget = 400 in
      let last_fail = ref None in
      let fails sched =
        !attempts < budget
        && begin
             incr attempts;
             let err, ds =
               run_one
                 ~policy:(forced_policy (Array.of_list sched))
                 ~faults ~max_steps body
             in
             match err with
             | Some Check_intf.Truncated | None -> false
             | Some e ->
                 last_fail := Some (e, ds);
                 true
           end
      in
      let current = ref schedule0 in
      if fails [] then current := []
      else begin
        let arr = Array.of_list schedule0 in
        let lo = ref 0 and hi = ref (Array.length arr) in
        while !lo < !hi do
          let mid = (!lo + !hi) / 2 in
          if fails (Array.to_list (Array.sub arr 0 mid)) then hi := mid
          else lo := mid + 1
        done;
        if !hi < Array.length arr then
          current := Array.to_list (Array.sub arr 0 !hi);
        let changed = ref true in
        while !changed && !attempts < budget do
          changed := false;
          let i = ref (List.length !current - 1) in
          while !i >= 0 && !attempts < budget do
            let cand = List.filteri (fun j _ -> j <> !i) !current in
            if fails cand then begin
              current := cand;
              changed := true
            end;
            decr i
          done
        done
      end;
      (* canonical replay of the minimum for its error and trace *)
      let err, ds =
        run_one
          ~policy:(forced_policy (Array.of_list !current))
          ~faults ~max_steps body
      in
      match err with
      | Some Check_intf.Truncated | None -> (
          match !last_fail with
          | Some (e, ds) -> (e, !current, trace_of ds)
          | None -> (error0, !current, trace_of ds))
      | Some e -> (e, !current, trace_of ds)

    (* Frontier items share the parent run's decision array instead of
       materializing a prefix list each: (base, split, alt) forces
       base.(0..split-1) then alt then the default policy.  Keeps the
       frontier O(1) words per pending schedule — the frontier for a
       branchy scenario holds hundreds of thousands of items. *)
    let policy_of base split alt : policy =
     fun ~step ~choices:_ ~default ->
      if step < split then base.(step)
      else if step = split && alt >= 0 then alt
      else default

    let dfs ?(bound = 2) ?(max_schedules = 20_000) ?(max_steps = 10_000)
        ?(faults = Check_intf.no_faults) ?(stop = fun () -> false)
        ?(dpor = false) body =
      if dpor then
        let r =
          Dpor.explore
            {
              Dpor.nprocs = n_procs;
              run_prefix =
                (fun ~prefix ~split ~alt ~sleep0 ->
                  run_one
                    ~policy:(policy_of prefix split alt)
                    ~sleep_from:split ~sleep0 ~faults ~max_steps body);
              shrink = shrink ~faults ~max_steps body;
            }
            ~bound ~max_schedules ~stop
        in
        {
          schedules = r.Dpor.r_schedules;
          truncated = r.Dpor.r_truncated;
          pruned = r.Dpor.r_pruned;
          capped = r.Dpor.r_capped;
          failure =
            Option.map
              (fun (error, schedule, trace) ->
                { error; schedule; seed = None; trace })
              r.Dpor.r_failure;
        }
      else begin
      let stack = ref [ ([||], 0, -1) ] in
      let schedules = ref 0 in
      let truncs = ref 0 in
      let capped = ref false in
      let failure = ref None in
      while Option.is_none !failure && !stack <> [] do
        match !stack with
        | [] -> ()
        | (base, split, alt) :: rest ->
            stack := rest;
            if !schedules >= max_schedules || stop () then begin
              capped := true;
              stack := []
            end
            else begin
              incr schedules;
              let forced_len = if alt < 0 then 0 else split + 1 in
              let err, ds =
                run_one ~policy:(policy_of base split alt) ~faults ~max_steps
                  body
              in
              match err with
              | Some Check_intf.Truncated -> incr truncs
              | Some e ->
                  let error, schedule, trace =
                    shrink ~faults ~max_steps body e ds
                  in
                  failure := Some { error; schedule; seed = None; trace }
              | None ->
                  (* Expand alternatives at decisions beyond the forced
                     prefix (earlier ones were expanded by ancestors).  An
                     alternative's preemption cost is the prefix's count
                     plus one iff taking it switches away from a proc that
                     could have continued. *)
                  let chosen = Array.map (fun d -> d.Dpor.s_proc) ds in
                  for i = Array.length ds - 1 downto forced_len do
                    let d = ds.(i) in
                    if not d.s_stutter then
                      Array.iter
                        (fun a ->
                          if a <> d.s_proc then begin
                            let cost =
                              d.s_preempts_before
                              + if d.s_prev_continuable && a <> d.s_prev then 1
                                else 0
                            in
                            if cost <= bound then
                              stack := (chosen, i, a) :: !stack
                          end)
                        d.s_choices
                  done
            end
      done;
      {
        schedules = !schedules;
        truncated = !truncs;
        pruned = 0;
        capped = !capped;
        failure = !failure;
      }
      end

    let random ?seed ?(runs = 500) ?(max_steps = 10_000)
        ?(faults = Check_intf.no_faults) body =
      let base = Option.value seed ~default:Sched_seed.default in
      let failure = ref None in
      let truncs = ref 0 in
      let n = ref 0 in
      (try
         for i = 0 to runs - 1 do
           let rseed = Sched_seed.derive base i in
           let state = ref rseed in
           let policy : policy =
            fun ~step:_ ~choices ~default:_ ->
             choices.(Sched_seed.bounded state (Array.length choices))
           in
           incr n;
           let err, ds = run_one ~policy ~faults ~max_steps body in
           match err with
           | None -> ()
           | Some Check_intf.Truncated -> incr truncs
           | Some e ->
               let error, schedule, trace =
                 shrink ~faults ~max_steps body e ds
               in
               failure :=
                 Some
                   {
                     error;
                     schedule;
                     seed = Some (Sched_seed.to_string rseed);
                     trace;
                   };
               raise Exit
         done
       with Exit -> ());
      {
        schedules = !n;
        truncated = !truncs;
        pruned = 0;
        capped = false;
        failure = !failure;
      }

    let replay ~schedule ?(max_steps = 10_000) ?(faults = Check_intf.no_faults)
        body =
      let err, ds =
        run_one
          ~policy:(forced_policy (Array.of_list schedule))
          ~faults ~max_steps body
      in
      match err with
      | None | Some Check_intf.Truncated -> None
      | Some e ->
          Some { error = e; schedule; seed = None; trace = trace_of ds }
  end
end

module Int (C : sig
  val max_procs : int
end) () =
  Make (C) (Mp.Mp_intf.Int_datum)
