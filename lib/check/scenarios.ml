(* The scenario corpus.  Conventions:

   - Every body calls [C.run] exactly once and instantiates any stateful
     client functor (thread scheduler, sync package, select, CML) INSIDE
     the run body, so each explored schedule starts from virgin state and
     traces replay identically.

   - Invariants are checked with [fail]/[check] rather than [assert] so a
     counterexample names the violated property.

   - Mutual-exclusion checks put a [C.Work.poll ()] inside the critical
     section: the check variable is incremented, the poll suspends the
     proc at a serialization point while it is "inside", and any second
     entrant observes the overlap.  Without a visible point inside the
     section the whole critical section would execute atomically and no
     schedule could witness a broken lock. *)

module Make (C : Mp_check.S with type Proc.proc_datum = int) = struct
  let fail fmt = Printf.ksprintf failwith fmt
  let check b fmt = if b then Printf.ksprintf ignore fmt else fail fmt

  (* Wait until every proc but the root has been released. *)
  let join () = C.Work.idle_until ~ready:(fun () -> C.Proc.live_procs () = 1)

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

  let mutex_scenario (module L : Mp.Mp_intf.LOCK) () =
    C.run (fun () ->
        let l = L.mutex_lock () in
        let in_cs = ref 0 in
        let overlap = ref false in
        let crit () =
          L.lock l;
          incr in_cs;
          if !in_cs > 1 then overlap := true;
          C.Work.poll ();
          decr in_cs;
          L.unlock l
        in
        C.spawn crit;
        crit ();
        join ();
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
        let work l c =
          for _ = 1 to 3 do
            L.lock l;
            incr c;
            L.unlock l
          done
        in
        C.spawn (fun () -> work lb cb);
        work la ca;
        join ();
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
        let bad = ref None in
        C.spawn (fun () ->
            T_rw.write_lock l;
            incr writers;
            if !writers > 1 then bad := Some "two writers"
            else if !readers > 0 then bad := Some "writer beside reader";
            C.Work.poll ();
            decr writers;
            T_rw.write_unlock l);
        T_rw.read_lock l;
        incr readers;
        if !writers > 0 then bad := Some "reader beside writer";
        C.Work.poll ();
        decr readers;
        T_rw.read_unlock l;
        join ();
        match !bad with None -> () | Some what -> fail "rw_spin: %s" what)

  (* ---- queue family --------------------------------------------------- *)

  (* The work-stealing policy's ready queue: a thief's steal-half batch
     racing the owner's pop at every instrumented cell access.  Every
     element must come out exactly once, whichever side wins the CAS. *)
  let spmc_queue_scenario () =
    C.run (fun () ->
        let module SQ = Queues.Spmc_queue.Make (C.Prims) in
        let q = SQ.create () in
        let stolen = ref [] in
        let popped = ref [] in
        C.spawn (fun () ->
            for _ = 1 to 2 do
              Array.iter (fun v -> stolen := v :: !stolen) (SQ.steal_half q)
            done);
        SQ.push q 1;
        SQ.push q 2;
        SQ.push q 3;
        (match SQ.pop q with Some v -> popped := v :: !popped | None -> ());
        (match SQ.pop q with Some v -> popped := v :: !popped | None -> ());
        join ();
        let rec drain () =
          match SQ.pop q with
          | Some v ->
              popped := v :: !popped;
              drain ()
          | None -> ()
        in
        drain ();
        let got = List.sort compare (!stolen @ !popped) in
        check
          (List.length got = List.length (List.sort_uniq compare got))
          "spmc_queue: element returned twice";
        check (got = [ 1; 2; 3 ]) "spmc_queue: lost or invented an element")

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
        let popped = ref [] in
        C.spawn (fun () ->
            for _ = 1 to 2 do
              batches := Array.to_list (SQ.steal_half q) :: !batches
            done);
        for v = 1 to 4 do
          SQ.push q v
        done;
        for _ = 1 to 3 do
          match SQ.pop q with Some v -> popped := v :: !popped | None -> ()
        done;
        SQ.push_oldest q 0;
        join ();
        let rec drain () =
          match SQ.pop q with
          | Some v ->
              popped := v :: !popped;
              drain ()
          | None -> ()
        in
        drain ();
        let rec ascending = function
          | a :: (b :: _ as tl) -> a < b && ascending tl
          | _ -> true
        in
        let got = List.sort compare (List.concat !batches @ !popped) in
        check
          (List.length got = List.length (List.sort_uniq compare got))
          "spmc owner ends: element returned twice";
        check (got = [ 0; 1; 2; 3; 4 ])
          "spmc owner ends: lost or invented an element";
        check
          (List.for_all ascending !batches)
          "spmc owner ends: a steal did not return oldest-first";
        (* [popped] is newest pop first *)
        check (ascending !popped)
          "spmc owner ends: the owner did not pop newest-first")

  (* Pinned micropools: with 2 pools over 2 procs, an item pushed into
     pool p (= proc mod 2) may only ever be taken by a proc of that pool —
     work must not migrate, whatever the interleaving.  Items are tagged
     with their pool so a migrated take identifies itself. *)
  let micropool_affinity_scenario () =
    C.run (fun () ->
        let module Pol = Mpthreads.Sched_policy.Make (C) in
        let (module S) =
          Pol.instance (Mpthreads.Sched_policy.Micropools 2)
        in
        let q = S.create ~procs:2 in
        S.prepare q ~procs:2;
        let bad = ref None in
        let taken = ref 0 in
        let consume ~proc =
          match S.take q ~proc with
          | Some tag ->
              incr taken;
              if tag <> proc mod 2 then bad := Some (proc, tag)
          | None -> ()
        in
        C.spawn (fun () ->
            S.push_local q ~proc:1 1;
            consume ~proc:1;
            consume ~proc:1);
        S.push_local q ~proc:0 0;
        S.push_local q ~proc:0 0;
        consume ~proc:0;
        join ();
        (* drain each pool through its own pool index *)
        consume ~proc:0;
        consume ~proc:1;
        (match !bad with
        | Some (proc, tag) ->
            fail "micropools: proc %d took pool-%d work" proc tag
        | None -> ());
        check (!taken = 3) "micropools: %d of 3 items consumed" !taken;
        check (S.total_length q = 0) "micropools: queue not drained")

  (* The spmc steal-half path through the [ws] policy itself (the policy's
     ready queues are the spmc queues; a thief's take steals half the
     victim's batch and keeps the remainder locally).  The owner pushes in
     two bursts around a poll so a steal can land mid-stream; whatever the
     interleaving — steal-half wins, owner pops first, or the batch splits
     across both — every element must come out exactly once. *)
  let ws_steal_half_scenario () =
    C.run (fun () ->
        let module Pol = Mpthreads.Sched_policy.Make (C) in
        let (module S) = Pol.instance Mpthreads.Sched_policy.Ws in
        let q = S.create ~procs:2 in
        S.prepare q ~procs:2;
        let got = ref [] in
        let consume ~proc =
          match S.take q ~proc with
          | Some v -> got := v :: !got
          | None -> ()
        in
        C.spawn (fun () ->
            S.push_local q ~proc:1 10;
            S.push_local q ~proc:1 11;
            C.Work.poll ();
            S.push_local q ~proc:1 12;
            S.push_local q ~proc:1 13;
            consume ~proc:1);
        C.Work.poll ();
        (* thief: an empty local queue forces the steal-half sweep *)
        consume ~proc:0;
        consume ~proc:0;
        join ();
        let rec drain budget =
          if budget > 0 then
            match S.take q ~proc:0 with
            | Some v ->
                got := v :: !got;
                drain (budget - 1)
            | None -> if S.looks_nonempty q ~proc:0 then drain (budget - 1)
        in
        drain 16;
        check
          (List.sort compare !got = [ 10; 11; 12; 13 ])
          "ws steal-half: lost, duplicated or invented an element";
        check
          (not (S.looks_nonempty q ~proc:0))
          "ws steal-half: emptiness hint stuck nonempty after the drain")

  let multi_queue_scenario () =
    C.run (fun () ->
        let module MQ = Queues.Multi_queue.Make (T_tas) in
        let q = MQ.create ~procs:2 in
        let got = ref [] in
        C.spawn (fun () ->
            MQ.push q ~proc:1 10;
            MQ.push q ~proc:1 11;
            match MQ.take q ~proc:1 with
            | Some v -> got := v :: !got
            | None -> ());
        MQ.push q ~proc:0 20;
        (match MQ.take q ~proc:0 with Some v -> got := v :: !got | None -> ());
        join ();
        let rec drain () =
          match MQ.take q ~proc:0 with
          | Some v ->
              got := v :: !got;
              drain ()
          | None -> ()
        in
        drain ();
        check
          (List.sort compare !got = [ 10; 11; 20 ])
          "multi_queue: lost, invented or duplicated an element")

  (* Capacity 1 and two items keep the space exhaustively explorable while
     still forcing both retry paths: the producer blocks on a full queue
     (item 2 cannot enqueue until item 1 is consumed) and the consumer
     blocks on an empty one. *)
  let bounded_queue_scenario () =
    C.run (fun () ->
        let module L = T_ttas in
        let q = Queues.Bounded_queue.create ~capacity:1 in
        let l = L.mutex_lock () in
        let got = ref [] in
        let push v =
          let rec go () =
            if not (L.locked l (fun () -> Queues.Bounded_queue.try_enq q v))
            then begin
              C.Work.idle ();
              go ()
            end
          in
          go ()
        in
        let pop () =
          let rec go () =
            match L.locked l (fun () -> Queues.Bounded_queue.deq_opt q) with
            | Some v -> v
            | None ->
                C.Work.idle ();
                go ()
          in
          go ()
        in
        C.spawn (fun () ->
            push 1;
            push 2);
        got := pop () :: !got;
        got := pop () :: !got;
        join ();
        check
          (List.rev !got = [ 1; 2 ])
          "bounded_queue: FIFO order or content violated")

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
        let module L = T_ttas in
        let trace = [ 0; 1; 2; 3 ] in
        let poison = -1 in
        let qs =
          [|
            Queues.Bounded_queue.create ~capacity:4;
            Queues.Bounded_queue.create ~capacity:1;
          |]
        in
        let locks = Array.map (fun _ -> L.mutex_lock ()) qs in
        let replies = Array.map (fun _ -> ref []) qs in
        let try_put s v =
          L.locked locks.(s) (fun () -> Queues.Bounded_queue.try_enq qs.(s) v)
        in
        let put s v =
          let rec go () =
            if not (try_put s v) then begin
              C.Work.idle ();
              go ()
            end
          in
          go ()
        in
        let route s v =
          if broken then begin
            if not (try_put s v) then begin
              C.Work.poll ();
              (* still full: the colliding request is silently dropped *)
              if not (try_put s v) then ()
            end
          end
          else put s v
        in
        let take s =
          let rec go () =
            match
              L.locked locks.(s) (fun () -> Queues.Bounded_queue.deq_opt qs.(s))
            with
            | Some v -> v
            | None ->
                C.Work.idle ();
                go ()
          in
          go ()
        in
        let work s =
          let rec loop () =
            let v = take s in
            if v <> poison then begin
              replies.(s) := v :: !(replies.(s));
              loop ()
            end
          in
          loop ()
        in
        C.spawn (fun () -> work 1);
        List.iter (fun id -> route (id mod 2) id) trace;
        Array.iteri (fun s _ -> put s poison) qs;
        work 0;
        join ();
        Array.iteri
          (fun s got ->
            let expected = List.filter (fun id -> id mod 2 = s) trace in
            let render l = String.concat "," (List.map string_of_int l) in
            check
              (List.rev !got = expected)
              "server: shard %d replied to [%s], expected [%s]" s
              (render (List.rev !got))
              (render expected))
          replies)

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
            let in_cs = ref 0 in
            let overlap = ref false in
            let writes = ref 0 in
            let crit () =
              C.Lock.lock l;
              incr in_cs;
              if !in_cs > 1 then overlap := true;
              C.Work.read_line ln;
              C.Work.poll ();
              C.Work.write_line ln ~bytes:8;
              incr writes;
              decr in_cs;
              C.Lock.unlock l
            in
            C.spawn crit;
            crit ();
            join ();
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
            let module Pol = Mpthreads.Sched_policy.Make (C) in
            let (module S) = Pol.instance Mpthreads.Sched_policy.Ws in
            let q = S.create ~procs:2 in
            S.prepare q ~procs:2;
            let got = ref [] in
            let consume ~proc =
              match S.take q ~proc with
              | Some v -> got := v :: !got
              | None -> ()
            in
            (* The ws deques are lock-free (no visible cell ops under the
               checker), so interleave at explicit poll points: every
               ordering of the two procs' pushes and takes is explored. *)
            C.spawn (fun () ->
                S.push_local q ~proc:1 10;
                C.Work.poll ();
                S.push_local q ~proc:1 11;
                consume ~proc:1);
            S.push_local q ~proc:0 20;
            C.Work.poll ();
            consume ~proc:0;
            join ();
            (* drain the remainder from node 0: remote steals *)
            let rec drain budget =
              if budget > 0 then
                match S.take q ~proc:0 with
                | Some v ->
                    got := v :: !got;
                    drain (budget - 1)
                | None -> if S.looks_nonempty q ~proc:0 then drain (budget - 1)
            in
            drain 16;
            check
              (List.sort compare !got = [ 10; 11; 20 ])
              "numa ws: lost, duplicated or invented an element";
            check
              (not (S.looks_nonempty q ~proc:0))
              "numa ws: emptiness hint stuck nonempty on a drained queue"))

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
            let bad = ref None in
            let expect cond what =
              if (not cond) && !bad = None then bad := Some what
            in
            let my_bit () = 1 lsl C.Proc.node_of (C.Proc.self ()) in
            let reader () =
              C.Work.read_line ln;
              let s = C.line_sharers ln in
              expect (s land my_bit () <> 0) "reader's node not a sharer";
              expect (s land lnot 3 = 0) "sharer outside the 2-node topology"
            in
            C.spawn (fun () ->
                reader ();
                C.Work.poll ();
                C.Work.write_line ln ~bytes:8;
                expect
                  (C.line_sharers ln = my_bit ())
                  "write left a remote sharer valid");
            reader ();
            C.Work.poll ();
            reader ();
            join ();
            (match !bad with
            | Some what -> fail "numa sharers: %s" what
            | None -> ());
            check (C.Proc.nodes () = 2) "numa sharers: topology not in effect";
            let s = C.line_sharers ln in
            check (s <> 0) "numa sharers: line ended with no holder";
            check (s land lnot 3 = 0) "numa sharers: final set out of range"))

  (* ---- a minimal scheduler for the thread-level packages -------------- *)

  (* Proc-per-thread scheduler with NO internal serialization points: the
     ready queue is a plain [Queue.t] mutated only between visible points
     (slices are atomic), so the decisions explored are exactly those of
     the package under test, not of the scheduler scaffolding.  Must be
     instantiated inside the run body (fresh queue per schedule). *)
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

  (* ---- sync constructs ------------------------------------------------ *)

  let sync_ivar_scenario () =
    C.run (fun () ->
        let module TS = Tiny () in
        let module Sy = Mpsync.Sync.Make (C) (TS) in
        let iv = Sy.Ivar.create () in
        let got = ref (-1) in
        TS.fork (fun () -> got := Sy.Ivar.read iv);
        Sy.Ivar.fill iv 42;
        join ();
        check (!got = 42) "ivar: reader saw %d, not 42" !got)

  let sync_mvar_scenario () =
    C.run (fun () ->
        let module TS = Tiny () in
        let module Sy = Mpsync.Sync.Make (C) (TS) in
        let mv = Sy.Mvar.create () in
        let got = ref [] in
        TS.fork (fun () ->
            Sy.Mvar.put mv 1;
            Sy.Mvar.put mv 2);
        got := Sy.Mvar.take mv :: !got;
        got := Sy.Mvar.take mv :: !got;
        join ();
        check (List.rev !got = [ 1; 2 ]) "mvar: takes out of order or lost")

  let sync_semaphore_scenario () =
    C.run (fun () ->
        let module TS = Tiny () in
        let module Sy = Mpsync.Sync.Make (C) (TS) in
        let sem = Sy.Semaphore.create 1 in
        let in_cs = ref 0 in
        let overlap = ref false in
        let crit () =
          Sy.Semaphore.acquire sem;
          incr in_cs;
          if !in_cs > 1 then overlap := true;
          C.Work.poll ();
          decr in_cs;
          Sy.Semaphore.release sem
        in
        TS.fork crit;
        crit ();
        join ();
        check (not !overlap) "semaphore: exclusion violated";
        check (Sy.Semaphore.value sem = 1) "semaphore: final value <> 1")

  (* ---- thread packages ------------------------------------------------ *)

  (* M3's mutex and condition (the ones Ml_threads shares) as a two-item
     producer/consumer: the consumer re-checks its predicate in a Mesa wait
     loop, so both lost wakeups and a missed hand-off show up as a
     deadlock, and a broken mutex as a lost or reordered item. *)
  let threads_mutex_condition_scenario () =
    C.run (fun () ->
        let module TS = Tiny () in
        let module M3 = Mpthreads.M3_thread.Make (C) (TS) in
        let m = M3.Mutex.create () in
        let c = M3.Condition.create () in
        let items = Queue.create () in
        let got = ref [] in
        TS.fork (fun () ->
            List.iter
              (fun v ->
                M3.Mutex.with_lock m (fun () ->
                    Queue.push v items;
                    M3.Condition.signal c))
              [ 1; 2 ]);
        for _ = 1 to 2 do
          M3.Mutex.with_lock m (fun () ->
              while Queue.is_empty items do
                M3.Condition.wait m c
              done;
              got := Queue.pop items :: !got)
        done;
        join ();
        let got = List.rev !got in
        check (got = [ 1; 2 ]) "threads: consumer got %d items, expected [1; 2]"
          (List.length got))

  (* ---- selective communication and CML -------------------------------- *)

  let select_scenario () =
    C.run (fun () ->
        let module TS = Tiny () in
        let module Sel = Select.Make (C) (TS) (Queues.Fifo_queue) in
        let c1 : int Sel.chan = Sel.chan () in
        let c2 : int Sel.chan = Sel.chan () in
        let got = ref (-1) in
        TS.fork (fun () -> Sel.send (c1, 7));
        got := Sel.receive [ c2; c1 ];
        join ();
        check (!got = 7) "select: received %d, not 7" !got)

  let cml_rendezvous_scenario () =
    C.run (fun () ->
        let module TS = Tiny () in
        let module M = Cml.Make (C) (TS) in
        let ch = M.channel () in
        let got = ref (-1) in
        M.spawn (fun () -> M.send ch 9);
        got := M.recv ch;
        join ();
        check (!got = 9) "cml: received %d, not 9" !got)

  let cml_choose_scenario () =
    C.run (fun () ->
        let module TS = Tiny () in
        let module M = Cml.Make (C) (TS) in
        let a = M.channel () in
        let b = M.channel () in
        let got = ref (-1) in
        M.spawn (fun () -> M.send b 5);
        got := M.select [ M.recv_evt a; M.recv_evt b ];
        join ();
        check (!got = 5) "cml: choice delivered %d, not 5" !got)

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
             C.spawn (fun () ->
                 C.Work.idle_until ~ready:(fun () -> !release));
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

  (* Two procs drive a shared per-proc minor-heap cost model ([minor_pp],
     the simulator's newest collector) under the platform lock — the way
     the real machine serializes its GC bookkeeping — with tiny regions so
     both the independent-minor path and the promoted-words major trigger
     are reached within the exploration bound.  A mirror of the accounting
     rules is kept in scenario state; on every explored schedule the model
     and the mirror must agree (word conservation, minor/major counts, the
     trigger raised exactly at the promotion budget). *)
  let gc_minor_pp_scenario () =
    C.run (fun () ->
        let region = 16 in
        let survival = 0.5 in
        let module M =
          (val Sim.Gc_model.instance Sim.Gc_model.Minor_pp
                 {
                   Sim.Gc_model.procs = 2;
                   region_words = region;
                   survival;
                   cycles_per_word = 1.0;
                   fixed_cycles = 1;
                   minor_fixed_cycles = 1;
                   barrier_cycles = 1;
                 })
        in
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
        C.spawn (fun () -> List.iter (alloc 1) [ 3; 5; 7; 2 ]);
        List.iter (alloc 0) [ 4; 6; 2; 5 ];
        join ();
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
        let module M =
          (val Sim.Gc_model.instance Sim.Gc_model.Minor_pp
                 {
                   Sim.Gc_model.procs = 2;
                   region_words = region;
                   survival = 1.0;
                   cycles_per_word = 1.0;
                   fixed_cycles = 1;
                   minor_fixed_cycles = 1;
                   barrier_cycles = 1;
                 })
        in
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
        C.spawn (fun () -> List.iter (alloc 1) [ 2; 2; 2; 2 ]);
        List.iter (alloc 0) [ 2; 2; 2; 2 ];
        join ();
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

  (* ---- the full thread package (heavy) -------------------------------- *)

  let threads_scenario ?sched () =
    C.run (fun () ->
        let module S = Mpthreads.Sched_thread.Make (C) in
        let hits = ref 0 in
        S.with_pool ~procs:2 ~quantum:1e6 ?sched (fun () ->
            S.fork_join [ (fun () -> incr hits); (fun () -> incr hits) ]);
        check (!hits = 2) "threads: fork_join lost a task")

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

  (* One pool scenario per scheduler policy: the whole family must survive
     bounded schedule exploration, not just the golden-pinned default. *)
  let heavy =
    ("threads_pool", threads_scenario ?sched:None)
    :: List.map
         (fun p ->
           ( "threads_pool_" ^ Mpthreads.Sched_policy.to_string p,
             threads_scenario ~sched:p ))
         Mpthreads.Sched_policy.
           [ Fifo; Lifo; Distributed; Ws; Micropools 2 ]
  let broken =
    [
      ("broken_tas", mutex_scenario (module Broken_tas));
      ("broken_server_drop", server_pipeline_scenario ~broken:true);
    ]
end
