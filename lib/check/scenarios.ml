(* The scenario corpus.  Conventions:

   - Every body calls [C.run] exactly once and instantiates any stateful
     client functor (thread scheduler, sync package, select, CML) INSIDE
     the run body, so each explored schedule starts from virgin state and
     traces replay identically.

   - Invariants are checked with [fail]/[check] rather than [assert] so a
     counterexample names the violated property.

   - Bodies are written over the dscheck-shaped harness below: [par] runs
     the two procs' sides and waits for both, and the final check follows.
     A helper performs exactly the visible operations its caller asks for,
     no more and in the same order, so a scenario explores exactly its own
     interleavings.  A helper returns what it takes: an item handed back
     through a ref that both procs write can be misattributed by an
     interleaving. *)

module Make (C : Mp_check.S with type Proc.proc_datum = int) = struct
  let fail fmt = Printf.ksprintf failwith fmt
  let check b fmt = if b then Printf.ksprintf ignore fmt else fail fmt

  (* ---- lock algorithms over the instrumented primitives -------------- *)

  module T_tas = Locks.Tas_lock.Make (C.Prims)
  module T_ttas = Locks.Ttas_lock.Make (C.Prims)
  module T_backoff = Locks.Backoff_lock.Make (C.Prims)
  module T_ticket = Locks.Ticket_lock.Make (C.Prims)
  module T_clh = Locks.Clh_lock.Make (C.Prims)
  module T_anderson = Locks.Anderson_lock.Make (C.Prims)
  module T_mcs = Locks.Mcs_lock.Make (C.Prims)
  module T_hwpool = Locks.Hwpool_lock.Make (C.Prims)
  module T_rw = Locks.Rw_spin_lock.Make (C.Prims)

  (* A deliberately broken test-and-set lock: the test and the set are two
     separate visible operations, so two procs can both read "free" and
     both enter.  Used only by [broken] — the harness must catch it. *)
  module Broken_tas = struct
    type mutex_lock = bool C.Prims.cell

    let mutex_lock () = C.Prims.make false

    let try_lock l =
      if C.Prims.get l then false
      else begin
        C.Prims.set l true;
        true
      end

    let rec lock l =
      if not (try_lock l) then begin
        C.Prims.on_spin ();
        C.Prims.pause ();
        lock l
      end

    let unlock l = C.Prims.set l false

    let locked l f = Mp.Mp_intf.locked ~lock ~unlock l f
  end

  (* ---- the harness ----------------------------------------------------- *)

  (* Wait until every proc but the root has been released. *)
  let join () = C.Work.idle_until ~ready:(fun () -> C.Proc.live_procs () = 1)

  (* [spawned] on a second proc and [root] on this one; [root]'s result
     once both are done.  The spawned side hands its results back through
     a ref only it writes. *)
  let par spawned root =
    C.spawn spawned;
    let r = root () in
    join ();
    r

  (* [n] takes, whatever each returns; the items in the order taken. *)
  let takes n take = List.filter_map Fun.id (List.init n (fun _ -> take ()))

  (* Take until a take comes back empty and [again] — a queue's emptiness
     hint, since a steal can come back empty with items left — says
     nothing is left, at most 16 takes; the items in the order taken. *)
  let drain ~again take =
    let rec go budget =
      if budget = 0 then []
      else
        match take () with
        | Some v -> v :: go (budget - 1)
        | None -> if again () then go (budget - 1) else []
    in
    go 16

  (* Every element of [expected] (sorted) came out of [got] exactly once. *)
  let exactly_once what got expected =
    let got = List.sort compare got in
    check
      (List.length got = List.length (List.sort_uniq compare got))
      "%s: element returned twice" what;
    check (got = expected) "%s: lost or invented an element" what

  (* An overlap-detecting critical section between [enter] and [leave],
     with the flag it raises.  [body] (usually just [C.Work.poll]) holds a
     visible point while the entrant is counted inside, so any second
     entrant observes the overlap.  Without a visible point inside the
     section the whole critical section would execute atomically and no
     schedule could witness a broken lock. *)
  let section enter body leave =
    let inside = ref 0 in
    let overlap = ref false in
    ( (fun () ->
        enter ();
        incr inside;
        if !inside > 1 then overlap := true;
        body ();
        decr inside;
        leave ()),
      overlap )

  (* A scheduler policy's ready queue over 2 procs.  [drain] takes from
     proc 0 while its emptiness hint says an item is left, then checks
     that the hint agrees the queue is empty. *)
  type policy = {
    push : proc:int -> int -> unit;
    take : proc:int -> int option;
    drain : unit -> int list;
    length : unit -> int;
  }

  let policy p =
    let module Pol = Mpthreads.Sched_policy.Make (C) in
    let (module S) = Pol.instance p in
    let q = S.create ~procs:2 in
    S.prepare q ~procs:2;
    let take ~proc = S.take q ~proc in
    let hint () = S.looks_nonempty q ~proc:0 in
    let drain () =
      let items = drain ~again:hint (fun () -> take ~proc:0) in
      check (not (hint ())) "%s: emptiness hint stuck nonempty after the drain"
        S.name;
      items
    in
    {
      push = (fun ~proc v -> S.push_local q ~proc v);
      take;
      drain;
      length = (fun () -> S.total_length q);
    }

  (* A bounded queue behind a TTAS lock: [try_put] is one locked attempt;
     [put] and [get] retry, pausing (a yield point) between attempts,
     until there is room or an item. *)
  type bounded = {
    try_put : int -> bool;
    put : int -> unit;
    get : unit -> int;
  }

  let bounded capacity =
    let q = Queues.Bounded_queue.create ~capacity in
    let l = T_ttas.mutex_lock () in
    let try_put v =
      T_ttas.locked l (fun () -> Queues.Bounded_queue.try_enq q v)
    in
    let rec put v =
      if not (try_put v) then begin
        C.Prims.pause ();
        put v
      end
    in
    let rec get () =
      match T_ttas.locked l (fun () -> Queues.Bounded_queue.deq_opt q) with
      | Some v -> v
      | None ->
          C.Prims.pause ();
          get ()
    in
    { try_put; put; get }

  (* The per-proc minor-heap collector ([minor_pp], the simulator's
     newest) for 2 procs at unit costs.  A tiny [region] lets both the
     independent-minor path and the promoted-words major trigger be
     reached within the exploration bound. *)
  let minor_pp ~region ~survival =
    Sim.Gc_model.instance Sim.Gc_model.Minor_pp
      {
        Sim.Gc_model.procs = 2;
        region_words = region;
        survival;
        cycles_per_word = 1.0;
        fixed_cycles = 1;
        minor_fixed_cycles = 1;
        barrier_cycles = 1;
      }

  (* Proc-per-thread scheduler with NO internal serialization points: the
     ready queue is a plain [Queue.t] mutated only between visible points
     (slices are atomic), so the decisions explored are exactly those of
     the package under test, not of the scheduler scaffolding.  Must be
     instantiated inside the run body (fresh queue per schedule).  Its
     [fork] is [C.spawn], so [par] forks a thread. *)
  module Tiny () : Mpthreads.Thread_intf.TIMED_SCHED = struct
    let ready : (unit -> unit) Queue.t = Queue.create ()
    let fork f = C.spawn f
    let id () = C.Proc.self ()
    let yield () = C.Work.poll ()
    let reschedule (k, _id) = Queue.push (fun () -> Mp.Engine.throw k ()) ready

    let reschedule_thread (k, v, _id) =
      Queue.push (fun () -> Mp.Engine.throw k v) ready

    let dispatch () =
      C.Work.idle_until ~ready:(fun () -> not (Queue.is_empty ready));
      (Queue.pop ready) ();
      assert false

    let now () = C.Work.now ()
    let at _t _f = failwith "Scenarios.Tiny.at: timers not supported"
  end

  (* The sync package over a fresh [Tiny] scheduler. *)
  module Sync () = Mpsync.Sync.Make (C) (Tiny ())

  (* ---- locks ----------------------------------------------------------- *)

  let mutex_scenario (module L : Mp.Mp_intf.LOCK) () =
    C.run (fun () ->
        let l = L.mutex_lock () in
        let crit, overlap =
          section (fun () -> L.lock l) C.Work.poll (fun () -> L.unlock l)
        in
        par crit crit;
        check (not !overlap) "mutual exclusion violated";
        check (L.try_lock l) "lock still held after both sections";
        L.unlock l)

  (* Two procs working under DIFFERENT locks: the race-directed
     exploration showcase.  Every cross-proc pair of lock operations
     touches a different object, so DPOR collapses the full interleaving
     product — which plain DFS pays in full at bound 3 — down to the
     handful of schedules the proc-pool handoff actually orders.  The
     counters keep the independence honest: each lock still guards real
     work, and a lost update would be caught on any schedule. *)
  let disjoint_scenario (module L : Mp.Mp_intf.LOCK) () =
    C.run (fun () ->
        let la = L.mutex_lock () in
        let lb = L.mutex_lock () in
        let ca = ref 0 in
        let cb = ref 0 in
        let work l c () =
          for _ = 1 to 3 do
            L.lock l;
            incr c;
            L.unlock l
          done
        in
        par (work lb cb) (work la ca);
        check
          (!ca = 3 && !cb = 3)
          "disjoint locks: counters %d/%d, expected 3/3" !ca !cb;
        check (L.try_lock la) "disjoint locks: lock A left held";
        check (L.try_lock lb) "disjoint locks: lock B left held";
        L.unlock la;
        L.unlock lb)

  let rw_scenario () =
    C.run (fun () ->
        let l = T_rw.create () in
        let writers = ref 0 in
        let readers = ref 0 in
        let clash b what = check (not b) "rw_spin: %s" what in
        par
          (fun () ->
            T_rw.write_lock l;
            incr writers;
            clash (!writers > 1) "two writers";
            clash (!readers > 0) "writer beside reader";
            C.Work.poll ();
            decr writers;
            T_rw.write_unlock l)
          (fun () ->
            T_rw.read_lock l;
            incr readers;
            clash (!writers > 0) "reader beside writer";
            C.Work.poll ();
            decr readers;
            T_rw.read_unlock l))

  (* ---- queue family --------------------------------------------------- *)

  (* The work-stealing policy's ready queue: a thief's steal-half batch
     racing the owner's pop at every instrumented cell access.  Every
     element must come out exactly once, whichever side wins the CAS. *)
  let spmc_queue_scenario () =
    C.run (fun () ->
        let module SQ = Queues.Spmc_queue.Make (C.Prims) in
        let q = SQ.create () in
        let stolen = ref [] in
        let popped =
          par
            (fun () ->
              for _ = 1 to 2 do
                stolen := Array.to_list (SQ.steal_half q) @ !stolen
              done)
            (fun () ->
              List.iter (SQ.push q) [ 1; 2; 3 ];
              takes 2 (fun () -> SQ.pop q))
        in
        let rest = drain ~again:(Fun.const false) (fun () -> SQ.pop q) in
        exactly_once "spmc_queue" (!stolen @ popped @ rest) [ 1; 2; 3 ])

  (* Both ends of the owner's side against a thief: the owner pushes 1..4,
     pops down to its last element (newest first) and pushes 0 at the
     oldest end, while a thief steals twice.  Every element comes out
     exactly once, the owner's pops run newest-first, and the thief's
     batches oldest-first — 0 is older than 1.  The owner's pop of the
     last element races the thief's CAS for it: a pop that shrinks the
     window without synchronising with thieves hands it out twice. *)
  let spmc_owner_ends_scenario () =
    C.run (fun () ->
        let module SQ = Queues.Spmc_queue.Make (C.Prims) in
        let q = SQ.create () in
        let batches = ref [] in
        let popped =
          par
            (fun () ->
              for _ = 1 to 2 do
                batches := Array.to_list (SQ.steal_half q) :: !batches
              done)
            (fun () ->
              List.iter (SQ.push q) [ 1; 2; 3; 4 ];
              let popped = takes 3 (fun () -> SQ.pop q) in
              SQ.push_oldest q 0;
              popped)
        in
        let popped =
          popped @ drain ~again:(Fun.const false) (fun () -> SQ.pop q)
        in
        let rec ascending = function
          | a :: (b :: _ as tl) -> a < b && ascending tl
          | _ -> true
        in
        exactly_once "spmc owner ends"
          (List.concat !batches @ popped)
          [ 0; 1; 2; 3; 4 ];
        check
          (List.for_all ascending !batches)
          "spmc owner ends: a steal did not return oldest-first";
        (* [popped] is in the order taken, so newest-first descends *)
        check
          (ascending (List.rev popped))
          "spmc owner ends: the owner did not pop newest-first")

  (* The owner's take-back against a thief: the owner pushes 1 and 2 and
     takes both back, newest first, while a thief steals once.  Whoever
     wins each CAS, every element comes out exactly once: a take-back
     that shrinks the window without synchronising with the thief hands
     the element the thief claimed out a second time. *)
  let spmc_take_back_scenario () =
    C.run (fun () ->
        let module SQ = Queues.Spmc_queue.Make (C.Prims) in
        let q = SQ.create () in
        let stolen = ref [] in
        let taken =
          par
            (fun () -> stolen := Array.to_list (SQ.steal_half q))
            (fun () ->
              List.iter (SQ.push q) [ 1; 2 ];
              List.filter (SQ.take_back q) [ 2; 1 ])
        in
        let rest = drain ~again:(Fun.const false) (fun () -> SQ.pop q) in
        exactly_once "spmc take_back" (!stolen @ taken @ rest) [ 1; 2 ])

  (* Pinned micropools: with 2 pools over 2 procs, an item pushed into
     pool p (= proc mod 2) may only ever be taken by a proc of that pool —
     work must not migrate, whatever the interleaving.  Items are tagged
     with their pool so a migrated take identifies itself. *)
  let micropool_affinity_scenario () =
    C.run (fun () ->
        let p = policy (Mpthreads.Sched_policy.Micropools 2) in
        let taken = ref 0 in
        let consume ~proc =
          Option.iter
            (fun tag ->
              incr taken;
              check (tag = proc mod 2) "micropools: proc %d took pool-%d work"
                proc tag)
            (p.take ~proc)
        in
        par
          (fun () ->
            p.push ~proc:1 1;
            consume ~proc:1;
            consume ~proc:1)
          (fun () ->
            p.push ~proc:0 0;
            p.push ~proc:0 0;
            consume ~proc:0);
        (* drain each pool through its own pool index *)
        consume ~proc:0;
        consume ~proc:1;
        check (!taken = 3) "micropools: %d of 3 items consumed" !taken;
        check (p.length () = 0) "micropools: queue not drained")

  (* The spmc steal-half path through the [ws] policy itself (the policy's
     ready queues are the spmc queues; a thief's take steals half the
     victim's batch and keeps the remainder locally).  The owner pushes in
     two bursts around a poll so a steal can land mid-stream; whatever the
     interleaving — steal-half wins, owner pops first, or the batch splits
     across both — every element must come out exactly once. *)
  let ws_steal_half_scenario () =
    C.run (fun () ->
        let p = policy Mpthreads.Sched_policy.Ws in
        let owned = ref [] in
        let stolen =
          par
            (fun () ->
              p.push ~proc:1 10;
              p.push ~proc:1 11;
              C.Work.poll ();
              p.push ~proc:1 12;
              p.push ~proc:1 13;
              owned := Option.to_list (p.take ~proc:1))
            (fun () ->
              C.Work.poll ();
              (* thief: an empty local queue forces the steal-half sweep *)
              takes 2 (fun () -> p.take ~proc:0))
        in
        let rest = p.drain () in
        exactly_once "ws steal-half"
          (!owned @ stolen @ rest)
          [ 10; 11; 12; 13 ])

  let multi_queue_scenario () =
    C.run (fun () ->
        let module MQ = Queues.Multi_queue.Make (T_tas) in
        let q = MQ.create ~procs:2 () in
        let owned = ref [] in
        let got =
          par
            (fun () ->
              MQ.push q ~proc:1 10;
              MQ.push q ~proc:1 11;
              owned := Option.to_list (MQ.take q ~proc:1))
            (fun () ->
              MQ.push q ~proc:0 20;
              Option.to_list (MQ.take q ~proc:0))
        in
        let rest =
          drain ~again:(Fun.const false) (fun () -> MQ.take q ~proc:0)
        in
        exactly_once "multi_queue" (!owned @ got @ rest) [ 10; 11; 20 ])

  (* Capacity 1 and two items keep the space exhaustively explorable while
     still forcing both retry paths: the producer blocks on a full queue
     (item 2 cannot enqueue until item 1 is consumed) and the consumer
     blocks on an empty one. *)
  let bounded_queue_scenario () =
    C.run (fun () ->
        let q = bounded 1 in
        let got =
          par
            (fun () -> List.iter q.put [ 1; 2 ])
            (fun () -> List.init 2 (fun _ -> q.get ()))
        in
        check (got = [ 1; 2 ]) "bounded_queue: FIFO order or content violated")

  (* ---- the server pipeline -------------------------------------------- *)

  (* The open-loop server pipeline (lib/workloads/server.ml) reduced to its
     checkable core: an accepter routes a fixed 4-request trace (shard =
     id mod 2) over two bounded shard queues, one worker per shard.  The
     scenario harness runs 2 procs, so the root is the accepter and then
     becomes shard 0's worker once the trace is routed; shard 1's worker
     runs concurrently on the spawned proc.  Shard 1's queue has capacity
     1 — the accepter takes the blocking full-queue path whenever its
     worker lags — while shard 0's is wide enough that its (not yet
     started) worker can never deadlock the accepter.  On every
     interleaving each shard must reply to exactly its requests, in FIFO
     order.

     [~broken:true] is the deliberately buggy router: on a shard
     collision (the queue still full after one visible retry, i.e. the
     previous request to the same shard not yet consumed) it drops the
     request instead of waiting for space.  A schedule where shard 1's
     worker lags the accepter loses a reply; exploration must catch it at
     bound 2 and shrink to a trace naming the lost ids. *)
  let server_pipeline_scenario ~broken () =
    C.run (fun () ->
        let trace = [ 0; 1; 2; 3 ] in
        let poison = -1 in
        let qs = Array.map bounded [| 4; 1 |] in
        let route s v =
          if not broken then qs.(s).put v
          else if not (qs.(s).try_put v) then begin
            C.Work.poll ();
            (* still full: the colliding request is silently dropped *)
            ignore (qs.(s).try_put v)
          end
        in
        let work s =
          let rec loop replies =
            let v = qs.(s).get () in
            if v = poison then List.rev replies else loop (v :: replies)
          in
          loop []
        in
        let replies1 = ref [] in
        let replies0 =
          par
            (fun () -> replies1 := work 1)
            (fun () ->
              List.iter (fun id -> route (id mod 2) id) trace;
              Array.iter (fun q -> q.put poison) qs;
              work 0)
        in
        List.iteri
          (fun s got ->
            let expected = List.filter (fun id -> id mod 2 = s) trace in
            let render l = String.concat "," (List.map string_of_int l) in
            check (got = expected)
              "server: shard %d replied to [%s], expected [%s]" s (render got)
              (render expected))
          [ replies0; !replies1 ])

  (* ---- hierarchical (NUMA) topology ----------------------------------- *)

  (* Run a scenario body with the procs split into [n] contiguous nodes,
     restoring the flat default afterwards (the rest of the corpus assumes
     it).  [set_nodes] must bracket [C.run], not sit inside it. *)
  let with_nodes n body () =
    C.set_nodes n;
    Fun.protect ~finally:(fun () -> C.set_nodes 1) body

  (* A contended-lock invalidation episode across nodes: both procs (one
     per node under [with_nodes 2]) take the platform lock and perform the
     read-snoop / RMW-claim sequence on one cache line — the access shape
     the simulator charges invalidation traffic for.  Exploration drives
     every interleaving of the probes, the in-section poll and the line
     operations; exclusion and line-API neutrality must survive all of
     them. *)
  let numa_lock_invalidation_scenario =
    with_nodes 2 (fun () ->
        C.run (fun () ->
            let l = C.Lock.mutex_lock () in
            let ln = C.Work.line () in
            let writes = ref 0 in
            let crit, overlap =
              section
                (fun () -> C.Lock.lock l)
                (fun () ->
                  C.Work.read_line ln;
                  C.Work.poll ();
                  C.Work.write_line ln ~bytes:8;
                  incr writes)
                (fun () -> C.Lock.unlock l)
            in
            par crit crit;
            check (C.Proc.nodes () = 2) "numa lock: topology not in effect";
            check (not !overlap) "numa lock: exclusion violated across nodes";
            check (!writes = 2) "numa lock: a node lost its line write"))

  (* Node-aware work stealing across the link: with one proc per node, all
     of proc 0's steals are remote (the same-node sweep sees nobody), so
     this drives the cross-node half of the victim sweep.  Work pushed on
     node 1 must remain reachable from node 0 — node awareness is a
     preference, never a partition — and nothing may be lost or doubled. *)
  let numa_ws_steal_scenario =
    with_nodes 2 (fun () ->
        C.run (fun () ->
            let p = policy Mpthreads.Sched_policy.Ws in
            let owned = ref [] in
            (* The ws deques are lock-free (no visible cell ops under the
               checker), so interleave at explicit poll points: every
               ordering of the two procs' pushes and takes is explored. *)
            let got =
              par
                (fun () ->
                  p.push ~proc:1 10;
                  C.Work.poll ();
                  p.push ~proc:1 11;
                  owned := Option.to_list (p.take ~proc:1))
                (fun () ->
                  p.push ~proc:0 20;
                  C.Work.poll ();
                  Option.to_list (p.take ~proc:0))
            in
            (* drain the remainder from node 0: remote steals *)
            let rest = p.drain () in
            exactly_once "numa ws" (!owned @ got @ rest) [ 10; 11; 20 ]))

  (* Sharer-set discipline with a REMOTE reader, checked directly on
     [line_sharers] under every interleaving: after a read the reader's
     node holds the line; a write invalidates every remote copy, leaving
     exactly the writer's node; and the set never names a node outside
     the topology.  The checks piggyback on the atomic tail of each line
     operation's slice, so they observe the line state the operation
     itself produced, not a later proc's. *)
  let numa_remote_sharers_scenario =
    with_nodes 2 (fun () ->
        C.run (fun () ->
            let ln = C.Work.line () in
            let expect cond what = check cond "numa sharers: %s" what in
            let my_bit () = 1 lsl C.Proc.node_of (C.Proc.self ()) in
            let reader () =
              C.Work.read_line ln;
              let s = C.line_sharers ln in
              expect (s land my_bit () <> 0) "reader's node not a sharer";
              expect (s land lnot 3 = 0) "sharer outside the 2-node topology"
            in
            par
              (fun () ->
                reader ();
                C.Work.poll ();
                C.Work.write_line ln ~bytes:8;
                expect
                  (C.line_sharers ln = my_bit ())
                  "write left a remote sharer valid")
              (fun () ->
                reader ();
                C.Work.poll ();
                reader ());
            check (C.Proc.nodes () = 2) "numa sharers: topology not in effect";
            let s = C.line_sharers ln in
            check (s <> 0) "numa sharers: line ended with no holder";
            check (s land lnot 3 = 0) "numa sharers: final set out of range"))

  (* ---- sync constructs ------------------------------------------------ *)

  let sync_ivar_scenario () =
    C.run (fun () ->
        let module Sy = Sync () in
        let iv = Sy.Ivar.create () in
        let got = ref (-1) in
        par (fun () -> got := Sy.Ivar.read iv) (fun () -> Sy.Ivar.fill iv 42);
        check (!got = 42) "ivar: reader saw %d, not 42" !got)

  let sync_mvar_scenario () =
    C.run (fun () ->
        let module Sy = Sync () in
        let mv = Sy.Mvar.create () in
        let got =
          par
            (fun () -> List.iter (Sy.Mvar.put mv) [ 1; 2 ])
            (fun () -> List.init 2 (fun _ -> Sy.Mvar.take mv))
        in
        check (got = [ 1; 2 ]) "mvar: takes out of order or lost")

  let sync_semaphore_scenario () =
    C.run (fun () ->
        let module Sy = Sync () in
        let sem = Sy.Semaphore.create 1 in
        let crit, overlap =
          section
            (fun () -> Sy.Semaphore.acquire sem)
            C.Work.poll
            (fun () -> Sy.Semaphore.release sem)
        in
        par crit crit;
        check (not !overlap) "semaphore: exclusion violated";
        check (Sy.Semaphore.value sem = 1) "semaphore: final value <> 1")

  (* ---- thread packages ------------------------------------------------ *)

  (* M3's mutex and condition (the ones Ml_threads shares) as a two-item
     producer/consumer: the consumer re-checks its predicate in a Mesa wait
     loop, so both lost wakeups and a missed hand-off show up as a
     deadlock, and a broken mutex as a lost or reordered item. *)
  let threads_mutex_condition_scenario () =
    C.run (fun () ->
        let module M3 = Mpthreads.M3_thread.Make (C) (Tiny ()) in
        let m = M3.Mutex.create () in
        let c = M3.Condition.create () in
        let items = Queue.create () in
        let consume () =
          M3.Mutex.with_lock m (fun () ->
              while Queue.is_empty items do
                M3.Condition.wait m c
              done;
              Queue.pop items)
        in
        let got =
          par
            (fun () ->
              List.iter
                (fun v ->
                  M3.Mutex.with_lock m (fun () ->
                      Queue.push v items;
                      M3.Condition.signal c))
                [ 1; 2 ])
            (fun () -> List.init 2 (fun _ -> consume ()))
        in
        check (got = [ 1; 2 ]) "threads: consumer got %d items, expected [1; 2]"
          (List.length got))

  (* ---- selective communication and CML -------------------------------- *)

  let select_scenario () =
    C.run (fun () ->
        let module Sel = Select.Make (C) (Tiny ()) (Queues.Fifo_queue) in
        let c1 : int Sel.chan = Sel.chan () in
        let c2 : int Sel.chan = Sel.chan () in
        let got =
          par (fun () -> Sel.send (c1, 7)) (fun () -> Sel.receive [ c2; c1 ])
        in
        check (got = 7) "select: received %d, not 7" got)

  let cml_rendezvous_scenario () =
    C.run (fun () ->
        let module M = Cml.Make (C) (Tiny ()) in
        let ch = M.channel () in
        let got = par (fun () -> M.send ch 9) (fun () -> M.recv ch) in
        check (got = 9) "cml: received %d, not 9" got)

  let cml_choose_scenario () =
    C.run (fun () ->
        let module M = Cml.Make (C) (Tiny ()) in
        let a = M.channel () in
        let b = M.channel () in
        let got =
          par
            (fun () -> M.send b 5)
            (fun () -> M.select [ M.recv_evt a; M.recv_evt b ])
        in
        check (got = 5) "cml: choice delivered %d, not 5" got)

  (* ---- proc-pool contract --------------------------------------------- *)

  let proc_pool_scenario () =
    C.run (fun () ->
        C.Proc.set_datum 17;
        check (C.Proc.get_datum () = 17) "proc: datum round-trip failed";
        let release = ref false in
        let spawned = ref 0 in
        let exhausted = ref false in
        (try
           for _ = 1 to C.Proc.max_procs () do
             C.spawn (fun () -> C.Work.idle_until ~ready:(fun () -> !release));
             incr spawned
           done
         with Mp.Mp_intf.No_More_Procs -> exhausted := true);
        check
          (!spawned = C.Proc.max_procs () - 1)
          "proc: %d spawns succeeded on a pool of %d" !spawned
          (C.Proc.max_procs ());
        check !exhausted "proc: pool exhaustion did not raise No_More_Procs";
        release := true;
        join ();
        check (C.Proc.get_datum () = 17) "proc: datum clobbered by spawns")

  (* ---- GC cost model accounting --------------------------------------- *)

  (* Two procs drive a shared [minor_pp] model under the platform lock —
     the way the real machine serializes its GC bookkeeping.  A mirror of
     the accounting rules is kept in scenario state; on every explored
     schedule the model and the mirror must agree (word conservation,
     minor/major counts, the trigger raised exactly at the promotion
     budget). *)
  let gc_minor_pp_scenario () =
    C.run (fun () ->
        let region = 16 in
        let survival = 0.5 in
        let module M = (val minor_pp ~region ~survival) in
        let minor_region = max 1 (region / 2) in
        let l = C.Lock.mutex_lock () in
        let used = [| 0; 0 |] in
        let promoted = ref 0 in
        let minors = ref 0 in
        let majors = ref 0 in
        let allocated = ref 0 in
        let collected = ref 0 in
        let alloc proc words =
          C.Lock.lock l;
          allocated := !allocated + words;
          (if M.admit ~proc ~words then begin
             C.Work.poll ();
             (* the admission stays valid across the visible point: only
                the lock holder may touch the model *)
             let pause, got = M.alloc ~proc ~words in
             check
               (pause = 0 && got = 0 && not !M.pending)
               "gc: admitted slice collected (pause %d, scanned %d)" pause got;
             used.(proc) <- used.(proc) + words
           end
           else begin
             let pause, got = M.alloc ~proc ~words in
             used.(proc) <- used.(proc) + words;
             if used.(proc) >= minor_region then begin
               check (got = used.(proc))
                 "gc: minor scanned %d words, region held %d" got used.(proc);
               check (pause > 0) "gc: minor collection priced at 0 cycles";
               incr minors;
               collected := !collected + got;
               promoted :=
                 !promoted
                 + int_of_float (survival *. float_of_int used.(proc));
               used.(proc) <- 0
             end
             else
               check
                 (pause = 0 && got = 0)
                 "gc: phantom collection (pause %d, scanned %d)" pause got
           end);
          check
            (M.region_used () = !promoted)
            "gc: promoted %d words, model says %d" !promoted (M.region_used ());
          check
            (!M.pending = (!promoted >= region))
            "gc: major trigger %b at %d/%d promoted words" !M.pending !promoted
            region;
          if !M.pending then begin
            let e = M.episode ~waiters:2 in
            check
              (e.Sim.Gc_model.kind = Sim.Gc_model.Major)
              "gc: pending episode not a major";
            check
              (e.Sim.Gc_model.region_words = !promoted)
              "gc: major collects %d words, %d promoted"
              e.Sim.Gc_model.region_words !promoted;
            M.finish_episode e;
            incr majors;
            promoted := 0
          end;
          C.Lock.unlock l
        in
        par
          (fun () -> List.iter (alloc 1) [ 3; 5; 7; 2 ])
          (fun () -> List.iter (alloc 0) [ 4; 6; 2; 5 ]);
        check
          (M.minor_collections () = !minors)
          "gc: %d minors ran, model counted %d" !minors
          (M.minor_collections ());
        check
          (M.major_collections () = !majors)
          "gc: %d majors ran, model counted %d" !majors
          (M.major_collections ());
        check
          (!allocated = !collected + used.(0) + used.(1))
          "gc: %d words allocated but %d scanned + %d resident" !allocated
          !collected
          (used.(0) + used.(1)))

  (* The major-trigger race on the per-proc collector: a promotion from
     one proc's independent minor collection can raise [pending] while
     the other proc sits between its unlocked observation of the trigger
     and its locked double-check.  Exactly one major may run per trigger
     — the race loser must find the trigger already cleared — and a lost
     race must never re-collect the freshly reset region (a double major
     would surface as a zero-word episode). *)
  let gc_major_race_scenario () =
    C.run (fun () ->
        let region = 8 in
        let module M = (val minor_pp ~region ~survival:1.0) in
        let l = C.Lock.mutex_lock () in
        let majors = ref 0 in
        let alloc proc words =
          C.Lock.lock l;
          ignore (M.alloc ~proc ~words);
          C.Lock.unlock l;
          (* unlocked observation of the trigger ... *)
          if !M.pending then begin
            C.Work.poll ();
            (* ... the other proc can slip in here ... *)
            C.Lock.lock l;
            (* ... so re-check under the lock before collecting *)
            if !M.pending then begin
              let e = M.episode ~waiters:2 in
              check
                (e.Sim.Gc_model.kind = Sim.Gc_model.Major)
                "gc race: pending episode not a major";
              check
                (e.Sim.Gc_model.region_words > 0)
                "gc race: major collected an already-reset region";
              M.finish_episode e;
              incr majors
            end;
            C.Lock.unlock l
          end
        in
        par
          (fun () -> List.iter (alloc 1) [ 2; 2; 2; 2 ])
          (fun () -> List.iter (alloc 0) [ 2; 2; 2; 2 ]);
        (* drain a trailing trigger so the final accounting is exact *)
        if !M.pending then begin
          let e = M.episode ~waiters:1 in
          M.finish_episode e;
          incr majors
        end;
        check
          (M.major_collections () = !majors)
          "gc race: %d majors ran, model counted %d" !majors
          (M.major_collections ());
        check (not !M.pending) "gc race: trigger left pending after the drain";
        (* a late major may collect more than one trigger-worth and a last
           minor may promote a sub-trigger residue, but a full trigger's
           worth must never survive uncollected *)
        check
          (M.region_used () < region)
          "gc race: %d promoted words left, trigger is %d" (M.region_used ())
          region)

  let all =
    [
      ("lock_tas", mutex_scenario (module T_tas));
      ("lock_ttas", mutex_scenario (module T_ttas));
      ("lock_backoff", mutex_scenario (module T_backoff));
      ("lock_ticket", mutex_scenario (module T_ticket));
      ("lock_clh", mutex_scenario (module T_clh));
      ("lock_anderson", mutex_scenario (module T_anderson));
      ("lock_mcs", mutex_scenario (module T_mcs));
      ("lock_hwpool", mutex_scenario (module T_hwpool));
      ("lock_rw_spin", rw_scenario);
      ("lock_tas_disjoint", disjoint_scenario (module T_tas));
      ("lock_ticket_disjoint", disjoint_scenario (module T_ticket));
      ("lock_mcs_disjoint", disjoint_scenario (module T_mcs));
      ("queue_spmc", spmc_queue_scenario);
      ("queue_spmc_owner_ends", spmc_owner_ends_scenario);
      ("queue_spmc_take_back", spmc_take_back_scenario);
      ("sched_micropool_affinity", micropool_affinity_scenario);
      ("sched_ws_steal_half", ws_steal_half_scenario);
      ("queue_multi", multi_queue_scenario);
      ("queue_bounded", bounded_queue_scenario);
      ("server_pipeline", server_pipeline_scenario ~broken:false);
      ("sync_ivar", sync_ivar_scenario);
      ("sync_mvar", sync_mvar_scenario);
      ("sync_semaphore", sync_semaphore_scenario);
      ("threads_mutex_condition", threads_mutex_condition_scenario);
      ("select_rendezvous", select_scenario);
      ("cml_rendezvous", cml_rendezvous_scenario);
      ("cml_choose", cml_choose_scenario);
      ("proc_pool", proc_pool_scenario);
      ("numa_lock_invalidation", numa_lock_invalidation_scenario);
      ("numa_ws_steal", numa_ws_steal_scenario);
      ("numa_remote_sharers", numa_remote_sharers_scenario);
      ("gc_minor_pp", gc_minor_pp_scenario);
      ("gc_minor_pp_major_race", gc_major_race_scenario);
    ]

  (* ---- the full thread package (heavy) -------------------------------- *)

  (* A two-child fork_join in a 2-proc pool; [child] is each child's body
     before it counts, and [on_steals] gets the run's steal count. *)
  let pool_fork_join ?(child = ignore) ?(on_steals = ignore) sched () =
    C.run (fun () ->
        let module S = Mpthreads.Sched_thread.Make (C) in
        let hits = ref 0 in
        let count () =
          child ();
          incr hits
        in
        S.with_pool ~procs:2 ~quantum:1e6 ~sched (fun () ->
            S.fork_join [ count; count ]);
        check (!hits = 2) "threads: fork_join lost a task";
        on_steals (S.steals ()))

  (* Under [ws] a join whose children were all taken back takes no lock,
     so [threads_pool_ws] has no decision to explore.  Here each child
     polls before it counts, so the other proc can steal the older child
     between its push and its take-back, and the parent then waits for it
     on the join lock. *)
  let ws_wait ~on_steals =
    pool_fork_join ~child:C.Work.poll ~on_steals Mpthreads.Sched_policy.Ws

  (* One pool scenario per scheduler policy: the whole family must survive
     bounded schedule exploration, not just the golden-pinned default. *)
  let heavy =
    List.map
      (fun sched ->
        ( "threads_pool_" ^ Mpthreads.Sched_policy.to_string sched,
          pool_fork_join sched ))
      Mpthreads.Sched_policy.[ Fifo; Lifo; Distributed; Ws; Micropools 2 ]
    @ [ ("threads_pool_ws_wait", ws_wait ~on_steals:ignore) ]

  let broken =
    [
      ("broken_tas", mutex_scenario (module Broken_tas));
      ("broken_server_drop", server_pipeline_scenario ~broken:true);
    ]
end
