(* Thread packages: UniThread (Figure 1), MPThread (Figure 3) on both real
   backends, the evaluation package (Sched_thread), and the Modula-3 style
   package. *)

open Mp

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let check_list = Alcotest.(check (list int))

module U = Mp_uniproc.Int ()

(* ---------------- UniThread (Figure 1) ---------------- *)

module UT_fifo = Mpthreads.Uni_thread.Make (Queues.Fifo_queue)
module UT_lifo = Mpthreads.Uni_thread.Make (Queues.Lifo_queue)

let test_uni_fork_runs_child_first () =
  (* Figure 1 semantics: fork suspends the parent and runs the child *)
  UT_fifo.reset ();
  let log = ref [] in
  U.run (fun () ->
      log := `Main0 :: !log;
      UT_fifo.fork (fun () -> log := `Child :: !log);
      log := `Main1 :: !log;
      UT_fifo.yield ());
  checkb "child ran before parent resumed" true
    (List.rev !log = [ `Main0; `Child; `Main1 ])

let test_uni_ids () =
  UT_fifo.reset ();
  let ids = ref [] in
  U.run (fun () ->
      check "main id" 0 (UT_fifo.id ());
      UT_fifo.fork (fun () -> ids := UT_fifo.id () :: !ids);
      UT_fifo.fork (fun () -> ids := UT_fifo.id () :: !ids);
      UT_fifo.yield ();
      check "main id restored" 0 (UT_fifo.id ()));
  check_list "fresh ids" [ 1; 2 ] (List.sort compare !ids)

let test_uni_yield_round_robin () =
  UT_fifo.reset ();
  let log = ref [] in
  U.run (fun () ->
      UT_fifo.fork (fun () ->
          log := "a1" :: !log;
          UT_fifo.yield ();
          log := "a2" :: !log);
      UT_fifo.fork (fun () ->
          log := "b1" :: !log;
          UT_fifo.yield ();
          log := "b2" :: !log);
      UT_fifo.yield ();
      UT_fifo.yield ();
      UT_fifo.yield ());
  Alcotest.(check (list string))
    "fifo interleaving" [ "a1"; "b1"; "a2"; "b2" ]
    (List.rev !log)

let test_uni_scheduling_policy_is_queue () =
  (* the paper's point: changing the functor argument changes the policy *)
  UT_lifo.reset ();
  let log = ref [] in
  U.run (fun () ->
      (* children run immediately on fork (depth-first), so ordering under
         LIFO differs from FIFO once yields are involved *)
      UT_lifo.fork (fun () ->
          log := 1 :: !log;
          UT_lifo.yield ();
          log := 11 :: !log);
      UT_lifo.fork (fun () ->
          log := 2 :: !log;
          UT_lifo.yield ();
          log := 22 :: !log);
      UT_lifo.yield ();
      UT_lifo.yield ();
      UT_lifo.yield ());
  (* under LIFO a yielding thread pops itself right back: depth-first *)
  check_list "lifo interleaving" [ 1; 11; 2; 22 ] (List.rev !log)

let test_uni_dispatch_empty_raises () =
  UT_fifo.reset ();
  Alcotest.check_raises "Figure 1: Empty escapes dispatch" Queues.Queue_intf.Empty
    (fun () -> U.run (fun () -> UT_fifo.dispatch ()) |> ignore)

let test_uni_many_threads () =
  UT_fifo.reset ();
  let n = 2_000 in
  let count = ref 0 in
  U.run (fun () ->
      for _ = 1 to n do
        UT_fifo.fork (fun () -> incr count)
      done;
      UT_fifo.yield ());
  check "thousands of threads" n !count

(* ---------------- MPThread (Figure 3) ---------------- *)

module D =
  Mp_domains.Int (struct
      let max_procs = 4
    end)
    ()

module MT = Mpthreads.Mp_thread.Make (D) (Queues.Fifo_queue)
module MT_uni = Mpthreads.Mp_thread.Make (U) (Queues.Fifo_queue)

let test_mp_thread_on_uniproc () =
  (* Figure 3 degrades to Figure 1 when acquire_proc always fails *)
  MT_uni.reset ();
  let count = ref 0 in
  let v =
    U.run (fun () ->
        for _ = 1 to 50 do
          MT_uni.fork (fun () -> incr count)
        done;
        let rec wait () =
          if !count < 50 then begin
            MT_uni.yield ();
            wait ()
          end
          else !count
        in
        wait ())
  in
  check "all children ran" 50 v

let test_mp_thread_parallel_counter () =
  MT.reset ();
  let n = 300 in
  let counter = ref 0 in
  let lock = D.Lock.mutex_lock () in
  let v =
    D.run (fun () ->
        for _ = 1 to n do
          MT.fork (fun () ->
              D.Lock.lock lock;
              incr counter;
              D.Lock.unlock lock)
        done;
        let rec wait () =
          D.Lock.lock lock;
          let c = !counter in
          D.Lock.unlock lock;
          if c < n then begin
            MT.yield ();
            wait ()
          end
          else c
        in
        wait ())
  in
  check "all threads ran across procs" n v

let test_mp_thread_ids_unique () =
  MT.reset ();
  let ids = Atomic.make [] in
  let n = 64 in
  let rec add id =
    let old = Atomic.get ids in
    if not (Atomic.compare_and_set ids old (id :: old)) then add id
  in
  D.run (fun () ->
      for _ = 1 to n do
        MT.fork (fun () -> add (MT.id ()))
      done;
      while List.length (Atomic.get ids) < n do
        MT.yield ()
      done);
  let sorted = List.sort_uniq compare (Atomic.get ids) in
  check "ids all distinct" n (List.length sorted)

(* ---------------- Sched_thread ---------------- *)

module S = Mpthreads.Sched_thread.Make (D)

let test_sched_pool_result () =
  check "result" 7 (D.run (fun () -> S.with_pool (fun () -> 7)))

let test_sched_fork_join () =
  let v =
    D.run (fun () ->
        S.with_pool (fun () ->
            let acc = Atomic.make 0 in
            S.fork_join
              (List.init 20 (fun i () -> ignore (Atomic.fetch_and_add acc i)));
            Atomic.get acc))
  in
  check "sum" 190 v

let test_sched_par_iter () =
  let v =
    D.run (fun () ->
        S.with_pool (fun () ->
            let arr = Array.make 500 0 in
            S.par_iter 500 (fun i -> arr.(i) <- i * 2);
            Array.fold_left ( + ) 0 arr))
  in
  check "every index visited once" (499 * 500) v

let test_sched_nested_fork_join () =
  let v =
    D.run (fun () ->
        S.with_pool (fun () ->
            let acc = Atomic.make 0 in
            S.fork_join
              (List.init 4 (fun _ () ->
                   S.fork_join
                     (List.init 4 (fun _ () -> Atomic.incr acc))));
            Atomic.get acc))
  in
  check "nested joins" 16 v

let test_sched_thread_error_propagates () =
  Alcotest.check_raises "forked exn re-raised at pool end" (Failure "child")
    (fun () ->
      ignore
        (D.run (fun () ->
             S.with_pool (fun () ->
                 S.fork_join [ (fun () -> failwith "child") ]))))

module SK = Mpthreads.Park.Make (D) (S)

let test_sched_block_and_resume () =
  let layer = SK.layer "test" in
  let v =
    D.run (fun () ->
        S.with_pool (fun () ->
            let spin = D.Lock.mutex_lock () in
            let cell = Atomic.make None in
            S.fork (fun () ->
                (* resume whoever parked in the cell, with value 5 *)
                let rec loop () =
                  match Atomic.get cell with
                  | Some (k, tid) -> SK.wake_with layer "test.cell" (k, 5, tid)
                  | None ->
                      S.yield ();
                      loop ()
                in
                loop ());
            SK.park layer "test.cell" spin (fun () ->
                SK.Wait (fun w -> Atomic.set cell (Some w)))))
  in
  check "blocked thread resumed with value" 5 v

let test_sched_pool_size () =
  D.run (fun () ->
      S.with_pool ~procs:2 (fun () -> check "procs held" 2 (S.pool_procs ())))

let test_sched_yield_many () =
  let v =
    D.run (fun () ->
        S.with_pool (fun () ->
            for _ = 1 to 100 do
              S.yield ()
            done;
            1))
  in
  check "survives many yields" 1 v

let test_sched_switch_count () =
  D.run (fun () ->
      S.with_pool (fun () ->
          S.fork_join (List.init 10 (fun _ () -> S.yield ()))));
  checkb "switches recorded" true (S.switches () > 0)

(* ---------------- scheduler policy family ---------------- *)

(* Every policy must complete the same fork_join workload on the
   preemptive domains backend. *)
let test_policy_fork_join_all () =
  List.iter
    (fun sched ->
      let v =
        D.run (fun () ->
            S.with_pool ~sched (fun () ->
                let acc = Atomic.make 0 in
                S.fork_join
                  (List.init 20 (fun i () ->
                       ignore (Atomic.fetch_and_add acc i)));
                Atomic.get acc))
      in
      check
        (Printf.sprintf "sum under %s" (Mpthreads.Sched_policy.to_string sched))
        190 v)
    Mpthreads.Sched_policy.[ Fifo; Lifo; Distributed; Ws; Micropools 2 ]


(* ---------------- timers (Sched) ---------------- *)

(* deterministic virtual-time platform for timer tests *)
module TP =
  Sim.Mp_sim.Int (struct
      let config = Sim.Sim_config.sequent ~procs:4 ()
    end)
    ()

module TS = Mpthreads.Sched_thread.Make (TP)

let test_sleep_advances_virtual_time () =
  let slept =
    TP.run (fun () ->
        TS.with_pool (fun () ->
            let t0 = TS.now () in
            TS.sleep 0.25;
            TS.now () -. t0))
  in
  checkb "slept at least the requested virtual time" true (slept >= 0.25);
  checkb "did not oversleep wildly" true (slept < 0.35)

let test_sleep_zero_is_noop () =
  TP.run (fun () -> TS.with_pool (fun () -> TS.sleep 0.))

let test_at_fires_in_order () =
  let log =
    TP.run (fun () ->
        TS.with_pool (fun () ->
            let log = ref [] in
            let t0 = TS.now () in
            TS.at (t0 +. 0.03) (fun () -> log := 3 :: !log);
            TS.at (t0 +. 0.01) (fun () -> log := 1 :: !log);
            TS.at (t0 +. 0.02) (fun () -> log := 2 :: !log);
            TS.sleep 0.1;
            List.rev !log))
  in
  check_list "timers in time order" [ 1; 2; 3 ] log

let test_sleeping_threads_in_parallel () =
  (* 4 threads sleeping 0.1s concurrently finish in ~0.1s virtual time *)
  let elapsed =
    TP.run (fun () ->
        TS.with_pool (fun () ->
            let t0 = TS.now () in
            TS.fork_join
              (List.init 4 (fun _ () -> TS.sleep 0.1));
            TS.now () -. t0))
  in
  checkb "concurrent sleeps overlap" true (elapsed < 0.2)

(* ---------------- ML Threads ---------------- *)

(* On a single proc the dispatch order is exactly the queue discipline:
   central FIFO runs forks oldest-first, central LIFO newest-first.
   Run on the simulator so the order is deterministic. *)
let policy_order sched =
  TP.run (fun () ->
      TS.with_pool ~procs:1 ~sched (fun () ->
          let order = ref [] in
          TS.fork_join (List.init 3 (fun i () -> order := (i + 1) :: !order));
          List.rev !order))

let test_policy_fifo_order () =
  check_list "central fifo runs oldest first" [ 1; 2; 3 ]
    (policy_order Mpthreads.Sched_policy.Fifo)

let test_policy_lifo_order () =
  check_list "central lifo runs newest first" [ 3; 2; 1 ]
    (policy_order Mpthreads.Sched_policy.Lifo)

(* Work stealing on the 4-proc simulator: the root proc forks everything
   into its own queue, so any work a worker proc performs was stolen —
   the steal counters must show hits, and attempts dominate hits. *)
let test_policy_ws_steals () =
  let v =
    TP.run (fun () ->
        TS.with_pool ~procs:4 ~sched:Mpthreads.Sched_policy.Ws (fun () ->
            let acc = Atomic.make 0 in
            TS.fork_join
              (List.init 40 (fun _ () ->
                   TS.yield ();
                   Atomic.incr acc));
            Atomic.get acc))
  in
  check "all tasks ran" 40 v;
  checkb "steals observed" true (TS.steals () > 0);
  checkb "attempts >= hits" true (TS.steal_attempts () >= TS.steals ())

(* Work stealing runs fork_join depth-first: each owner pops its newest
   task, so a proc holds about one root-to-leaf path of suspended joins
   rather than the breadth of the task tree (43 live fibers at most at a
   leaf; an owner popping its oldest task holds 484). *)
let test_policy_ws_depth_first () =
  let peak = ref 0 in
  let v =
    TP.run (fun () ->
        TS.with_pool ~procs:4 ~sched:Mpthreads.Sched_policy.Ws (fun () ->
            let rec seq_fib k =
              if k < 2 then k else seq_fib (k - 1) + seq_fib (k - 2)
            in
            let rec node k =
              if k < 8 then begin
                peak := max !peak (Engine.live_fibers ());
                let v = seq_fib k in
                TP.Work.step ~instrs:(40 * (v + 1)) ~alloc_words:(v + 1) ();
                v
              end
              else begin
                TP.Work.step ~instrs:120 ~alloc_words:24 ();
                let a = ref 0 and b = ref 0 in
                TS.fork_join
                  [
                    (fun () -> a := node (k - 1)); (fun () -> b := node (k - 2));
                  ];
                !a + !b
              end
            in
            node 20))
  in
  check "fib 20" 6765 v;
  checkb
    (Printf.sprintf "peak live fibers %d <= 100" !peak)
    true (!peak <= 100)

(* A yield goes behind everything queued: two threads yielding in a loop
   on one proc take turns.  If it went to the owner's newest end, a
   yielder would resume itself at once. *)
let test_policy_ws_yields_alternate () =
  let log =
    TP.run (fun () ->
        TS.with_pool ~procs:1 ~sched:Mpthreads.Sched_policy.Ws (fun () ->
            let log = ref [] in
            TS.fork_join
              (List.map
                 (fun who () ->
                   for _ = 1 to 4 do
                     log := who :: !log;
                     TS.yield ()
                   done)
                 [ 1; 2 ]);
            List.rev !log))
  in
  check "eight turns" 8 (List.length log);
  checkb
    (Printf.sprintf "turns alternate: %s"
       (String.concat " " (List.map string_of_int log)))
    true
    (let rec alternates = function
       | a :: (b :: _ as tl) -> a <> b && alternates tl
       | _ -> true
     in
     alternates log)

(* An idle ws take pays only for queues that hold something.  On the
   16-proc Sequent, proc 0's take from an empty pool peeks at all 16
   queues and charges nothing (a 2-cycle read per queue would be 32).
   Once proc 5's queue holds an item, the take that steals it costs
   exactly one probe: [steal_half]'s two charged reads and its CAS with
   the CAS's bus transaction, 69 cycles.  Reading the empty queues on the
   way made it 75. *)
module P16 =
  Sim.Mp_sim.Int (struct
      let config = Sim.Sim_config.sequent ~procs:16 ()
    end)
    ()

module Pol16 = Mpthreads.Sched_policy.Make (P16)

let test_policy_ws_empty_take_free () =
  let (module S) = Pol16.instance Mpthreads.Sched_policy.Ws in
  P16.run (fun () ->
      let q = S.create ~procs:16 in
      S.prepare q ~procs:16;
      let t0 = P16.Telemetry.now_ts () in
      checkb "empty take" true (S.take q ~proc:0 = None);
      check "cycles of an empty take" 0 (P16.Telemetry.now_ts () - t0);
      S.push_local q ~proc:5 42;
      let t1 = P16.Telemetry.now_ts () in
      checkb "stolen" true (S.take q ~proc:0 = Some 42);
      check "cycles of one probe" 69 (P16.Telemetry.now_ts () - t1))

(* Each proc counts its own forks, switches, steals and lock acquisitions;
   after a domains pool the totals are exact.  A tree of 232 two-way
   fork_joins forks 464 threads and takes one lock per node to record its
   id; no two of the 465 threads share an id.  A join takes its own lock
   only for the children a thief took first (one per such child, one for
   the waiter), so on one proc, where every child is taken back and runs
   in its parent's fiber, the ids lock is the only lock taken, and on two
   the join locks add between none and 3 per join. *)
let test_sched_counters_exact () =
  let get name = Obs.Counters.get (D.Telemetry.counter name) in
  let tree procs =
    let before = get "lock.acquires" in
    let ids = ref [] in
    let ids_lock = D.Lock.mutex_lock () in
    let switches, steals =
      D.run (fun () ->
          S.with_pool ~procs ~sched:Mpthreads.Sched_policy.Ws (fun () ->
              let rec node k =
                D.Lock.locked ids_lock (fun () -> ids := S.id () :: !ids);
                if k >= 2 then
                  S.fork_join
                    [ (fun () -> node (k - 1)); (fun () -> node (k - 2)) ]
              in
              node 12);
          (S.switches (), S.steals ()))
    in
    check "distinct thread ids" 465 (List.length (List.sort_uniq compare !ids));
    check "sched.forks" 464 (get "sched.forks");
    check "sched.switches" switches (get "sched.switches");
    checkb "a switch per forked thread at least" true (switches >= 464);
    check "sched.steals" steals (get "sched.steals");
    check "sched.steal_hits" steals (get "sched.steal_hits");
    checkb "steal attempts >= hits" true (get "sched.steal_attempts" >= steals);
    get "lock.acquires" - before
  in
  check "lock.acquires on 1 proc: the ids lock alone" 465 (tree 1);
  let acquires = tree 2 in
  checkb
    (Printf.sprintf "lock.acquires on 2 procs: %d within [465, 3 * 232 + 465]"
       acquires)
    true
    (465 <= acquires && acquires <= (3 * 232) + 465)

module Ml = Mpthreads.Ml_threads.Make (D) (S)

let test_ml_fork_and_handles () =
  let v =
    D.run (fun () ->
        S.with_pool (fun () ->
            let ran = Atomic.make 0 in
            let t1 = Ml.fork (fun () -> Atomic.incr ran) in
            let t2 = Ml.fork (fun () -> Atomic.incr ran) in
            checkb "distinct handles" true (not (Ml.equal t1 t2));
            while Atomic.get ran < 2 do
              Ml.yield ()
            done;
            Atomic.get ran))
  in
  check "both threads ran" 2 v

let test_ml_exit () =
  let v =
    D.run (fun () ->
        S.with_pool (fun () ->
            let cell = Atomic.make 0 in
            ignore
              (Ml.fork (fun () ->
                   Atomic.set cell 1;
                   Ml.exit () |> ignore));
            while Atomic.get cell = 0 do
              Ml.yield ()
            done;
            (* code after exit never runs; cell stays 1 *)
            Ml.yield ();
            Atomic.get cell))
  in
  check "exit terminates the thread" 1 v

let test_ml_mutex_try () =
  D.run (fun () ->
      S.with_pool (fun () ->
          let m = Ml.mutex () in
          checkb "acquire" true (Ml.try_acquire m);
          checkb "contended" false (Ml.try_acquire m);
          Ml.release m;
          checkb "free again" true (Ml.try_acquire m);
          Ml.release m))

let test_ml_mutex_excludes () =
  let v =
    D.run (fun () ->
        S.with_pool (fun () ->
            let m = Ml.mutex () in
            let counter = ref 0 in
            let done_ = Atomic.make 0 in
            for _ = 1 to 6 do
              ignore
                (Ml.fork (fun () ->
                     for _ = 1 to 300 do
                       Ml.with_mutex m (fun () -> incr counter)
                     done;
                     Atomic.incr done_))
            done;
            while Atomic.get done_ < 6 do
              Ml.yield ()
            done;
            !counter))
  in
  check "atomic increments" 1_800 v

let test_ml_condition () =
  let v =
    D.run (fun () ->
        S.with_pool (fun () ->
            let m = Ml.mutex () in
            let c = Ml.condition () in
            let flag = ref false in
            let observed = Atomic.make 0 in
            ignore
              (Ml.fork (fun () ->
                   Ml.acquire m;
                   while not !flag do
                     Ml.wait (c, m)
                   done;
                   Ml.release m;
                   Atomic.set observed 1));
            S.yield ();
            Ml.with_mutex m (fun () -> flag := true);
            Ml.signal c;
            while Atomic.get observed = 0 do
              Ml.yield ()
            done;
            Atomic.get observed))
  in
  check "condition woke the waiter" 1 v

(* A thread's fork handle is the value [self ()] returns inside it: in a
   second pool (where scheduler ids start over) as in the first, and on
   both procs (two pinned pools split the children between them; the root
   waits on a condition, since a yield would put it back at the head of
   its own pool). *)
let test_ml_fork_handle_is_self () =
  let pool () =
    D.run (fun () ->
        S.with_pool ~procs:2 ~sched:(Mpthreads.Sched_policy.Micropools 2)
          (fun () ->
            let n = 4 in
            let m = Ml.mutex () and c = Ml.condition () in
            let seen = Array.make n None and finished = ref 0 in
            let handles =
              Array.init n (fun i ->
                  Ml.fork (fun () ->
                      let me = (Ml.self (), D.Proc.self ()) in
                      Ml.with_mutex m (fun () ->
                          seen.(i) <- Some me;
                          incr finished);
                      Ml.signal c))
            in
            Ml.acquire m;
            while !finished < n do
              Ml.wait (c, m)
            done;
            Ml.release m;
            Array.map2 (fun h s -> (h, Option.get s)) handles seen))
  in
  List.iter
    (fun children ->
      Array.iter
        (fun (h, (me, _)) ->
          checkb
            (Printf.sprintf "fork handle %d = self %d" (Ml.id h) (Ml.id me))
            true (Ml.equal h me))
        children;
      check_list "children ran on both procs" [ 0; 1 ]
        (List.sort_uniq compare
           (Array.to_list (Array.map (fun (_, (_, p)) -> p) children))))
    [ pool (); pool () ]

(* ---------------- M3 threads ---------------- *)

module M3 = Mpthreads.M3_thread.Make (D) (S)

let in_pool f = D.run (fun () -> S.with_pool f)

let test_m3_join_value () =
  check "typed join" 21 (in_pool (fun () -> M3.join (M3.fork (fun () -> 21))))

let test_m3_join_exn () =
  Alcotest.check_raises "join re-raises" (Failure "dead") (fun () ->
      ignore (in_pool (fun () -> M3.join (M3.fork (fun () -> failwith "dead")))))

let test_m3_join_many () =
  let v =
    in_pool (fun () ->
        let ts = List.init 16 (fun i -> M3.fork (fun () -> i)) in
        List.fold_left (fun acc t -> acc + M3.join t) 0 ts)
  in
  check "sum of results" 120 v

let test_m3_join_after_done () =
  let v =
    in_pool (fun () ->
        let t = M3.fork (fun () -> 3) in
        S.yield ();
        (* thread likely finished; join must still return *)
        M3.join t + M3.join t)
  in
  check "multiple joins" 6 v

let test_m3_mutex () =
  let v =
    in_pool (fun () ->
        let m = M3.Mutex.create () in
        let counter = ref 0 in
        let ts =
          List.init 8 (fun _ ->
              M3.fork (fun () ->
                  for _ = 1 to 500 do
                    M3.Mutex.with_lock m (fun () -> incr counter)
                  done))
        in
        List.iter M3.join ts;
        !counter)
  in
  check "mutex protects counter" 4_000 v

(* M3's parks report through the shared park telemetry under [sync.*]:
   the root holds the mutex until it waits, so its first condition wait
   must park, and every park of a finished run has been woken. *)
let test_m3_parks_counted () =
  let blocks = D.Telemetry.counter "sync.blocks" in
  let wakeups = D.Telemetry.counter "sync.wakeups" in
  let b0 = Obs.Counters.get blocks and w0 = Obs.Counters.get wakeups in
  in_pool (fun () ->
      let m = M3.Mutex.create () and c = M3.Condition.create () in
      let ready = ref false in
      M3.Mutex.lock m;
      let t =
        M3.fork (fun () ->
            M3.Mutex.with_lock m (fun () ->
                ready := true;
                M3.Condition.signal c))
      in
      while not !ready do
        M3.Condition.wait m c
      done;
      M3.Mutex.unlock m;
      M3.join t);
  let b = Obs.Counters.get blocks - b0 in
  checkb "condition wait parked" true (b >= 1);
  check "every park woken" b (Obs.Counters.get wakeups - w0)

let test_m3_condition_producer_consumer () =
  let v =
    in_pool (fun () ->
        let m = M3.Mutex.create () in
        let nonempty = M3.Condition.create () in
        let queue = Queue.create () in
        let consumed = ref 0 in
        let consumer =
          M3.fork (fun () ->
              let acc = ref 0 in
              for _ = 1 to 50 do
                M3.Mutex.lock m;
                while Queue.is_empty queue do
                  M3.Condition.wait m nonempty
                done;
                acc := !acc + Queue.pop queue;
                incr consumed;
                M3.Mutex.unlock m
              done;
              !acc)
        in
        for i = 1 to 50 do
          M3.Mutex.with_lock m (fun () -> Queue.push i queue);
          M3.Condition.signal nonempty;
          if i mod 10 = 0 then S.yield ()
        done;
        M3.join consumer)
  in
  check "all items consumed in order" 1275 v

let test_m3_broadcast () =
  let v =
    in_pool (fun () ->
        let m = M3.Mutex.create () in
        let go = M3.Condition.create () in
        let ready = ref false in
        let woken = Atomic.make 0 in
        let ts =
          List.init 6 (fun _ ->
              M3.fork (fun () ->
                  M3.Mutex.lock m;
                  while not !ready do
                    M3.Condition.wait m go
                  done;
                  M3.Mutex.unlock m;
                  Atomic.incr woken))
        in
        S.yield ();
        M3.Mutex.with_lock m (fun () -> ready := true);
        M3.Condition.broadcast go;
        List.iter M3.join ts;
        Atomic.get woken)
  in
  check "broadcast wakes all" 6 v

(* ---------------- M3 alerts ---------------- *)

let test_m3_alert_polled () =
  let v =
    in_pool (fun () ->
        let t =
          M3.fork (fun () ->
              let n = ref 0 in
              while not (M3.test_alert ()) do
                incr n;
                S.yield ()
              done;
              !n)
        in
        S.yield ();
        M3.alert t;
        M3.join t)
  in
  checkb "thread observed the alert" true (v >= 0)

let test_m3_alert_wait_wakes () =
  let v =
    in_pool (fun () ->
        let m = M3.Mutex.create () in
        let c = M3.Condition.create () in
        let outcome = Atomic.make 0 in
        let t =
          M3.fork (fun () ->
              M3.Mutex.lock m;
              (match M3.alert_wait m c with
              | () -> Atomic.set outcome 1
              | exception M3.Alerted -> Atomic.set outcome 2);
              M3.Mutex.unlock m)
        in
        S.yield ();
        (* nobody signals: only the alert can free it *)
        M3.alert t;
        M3.join t;
        Atomic.get outcome)
  in
  check "alert_wait raised Alerted" 2 v

let test_m3_alert_flag_cleared () =
  in_pool (fun () ->
      let t =
        M3.fork (fun () ->
            while not (M3.test_alert ()) do
              S.yield ()
            done;
            (* the flag is cleared by test_alert: a second check is false *)
            M3.test_alert ())
      in
      S.yield ();
      M3.alert t;
      checkb "cleared after delivery" false (M3.join t))

let () =
  Alcotest.run "threads"
    [
      ( "unithread",
        [
          Alcotest.test_case "fork runs child first" `Quick
            test_uni_fork_runs_child_first;
          Alcotest.test_case "ids" `Quick test_uni_ids;
          Alcotest.test_case "fifo round robin" `Quick
            test_uni_yield_round_robin;
          Alcotest.test_case "policy = queue discipline" `Quick
            test_uni_scheduling_policy_is_queue;
          Alcotest.test_case "empty dispatch raises" `Quick
            test_uni_dispatch_empty_raises;
          Alcotest.test_case "2000 threads" `Quick test_uni_many_threads;
        ] );
      ( "mpthread",
        [
          Alcotest.test_case "on uniproc" `Quick test_mp_thread_on_uniproc;
          Alcotest.test_case "parallel counter" `Quick
            test_mp_thread_parallel_counter;
          Alcotest.test_case "unique ids" `Quick test_mp_thread_ids_unique;
        ] );
      ( "sched",
        [
          Alcotest.test_case "pool result" `Quick test_sched_pool_result;
          Alcotest.test_case "fork_join" `Quick test_sched_fork_join;
          Alcotest.test_case "par_iter" `Quick test_sched_par_iter;
          Alcotest.test_case "nested fork_join" `Quick
            test_sched_nested_fork_join;
          Alcotest.test_case "error propagates" `Quick
            test_sched_thread_error_propagates;
          Alcotest.test_case "block/resume" `Quick test_sched_block_and_resume;
          Alcotest.test_case "pool size" `Quick test_sched_pool_size;
          Alcotest.test_case "many yields" `Quick test_sched_yield_many;
          Alcotest.test_case "switch count" `Quick test_sched_switch_count;
        ] );
      ( "sched policies",
        [
          Alcotest.test_case "all policies fork_join" `Quick
            test_policy_fork_join_all;
          Alcotest.test_case "fifo dispatch order" `Quick
            test_policy_fifo_order;
          Alcotest.test_case "lifo dispatch order" `Quick
            test_policy_lifo_order;
          Alcotest.test_case "ws steals on sim" `Quick test_policy_ws_steals;
          Alcotest.test_case "ws runs depth-first" `Quick
            test_policy_ws_depth_first;
          Alcotest.test_case "ws yields alternate" `Quick
            test_policy_ws_yields_alternate;
          Alcotest.test_case "counters exact on 2 domains" `Quick
            test_sched_counters_exact;
          Alcotest.test_case "ws empty take is charge-free" `Quick
            test_policy_ws_empty_take_free;
        ] );
      ( "timers",
        [
          Alcotest.test_case "sleep advances virtual time" `Quick
            test_sleep_advances_virtual_time;
          Alcotest.test_case "sleep 0" `Quick test_sleep_zero_is_noop;
          Alcotest.test_case "at in order" `Quick test_at_fires_in_order;
          Alcotest.test_case "parallel sleeps" `Quick
            test_sleeping_threads_in_parallel;
        ] );
      ( "ml_threads",
        [
          Alcotest.test_case "fork and handles" `Quick test_ml_fork_and_handles;
          Alcotest.test_case "exit" `Quick test_ml_exit;
          Alcotest.test_case "try_acquire" `Quick test_ml_mutex_try;
          Alcotest.test_case "mutex excludes" `Quick test_ml_mutex_excludes;
          Alcotest.test_case "condition" `Quick test_ml_condition;
          Alcotest.test_case "fork handle is the child's self" `Quick
            test_ml_fork_handle_is_self;
        ] );
      ( "m3",
        [
          Alcotest.test_case "join value" `Quick test_m3_join_value;
          Alcotest.test_case "join exn" `Quick test_m3_join_exn;
          Alcotest.test_case "join many" `Quick test_m3_join_many;
          Alcotest.test_case "join after done" `Quick test_m3_join_after_done;
          Alcotest.test_case "mutex" `Slow test_m3_mutex;
          Alcotest.test_case "producer/consumer" `Quick
            test_m3_condition_producer_consumer;
          Alcotest.test_case "broadcast" `Quick test_m3_broadcast;
          Alcotest.test_case "parks counted under sync" `Quick
            test_m3_parks_counted;
          Alcotest.test_case "alert polled" `Quick test_m3_alert_polled;
          Alcotest.test_case "alert_wait wakes" `Quick test_m3_alert_wait_wakes;
          Alcotest.test_case "alert flag cleared" `Quick
            test_m3_alert_flag_cleared;
        ] );
    ]
