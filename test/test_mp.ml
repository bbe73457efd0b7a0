(* MP platform backends: the PROC/LOCK/WORK contracts on the uniprocessor
   and domains backends — acquire/release, per-proc data, proc limits,
   deadlock detection, exceptions, stats. *)

open Mp

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* ---------------- uniprocessor ---------------- *)

module U = Mp_uniproc.Int ()

let test_uni_acquire_fails () =
  checkb "No_More_Procs" true
    (U.run (fun () ->
         let k =
           Kont_util.cont_of_thunk ~on_return:(fun () -> ()) (fun () -> ())
         in
         match U.Proc.acquire_proc (U.Proc.PS (k, 1)) with
         | () -> false
         | exception U.Proc.No_More_Procs -> true))

let test_uni_datum () =
  let v =
    U.run (fun () ->
        U.Proc.set_datum 5;
        U.Proc.get_datum ())
  in
  check "datum round trip" 5 v

let test_uni_identity () =
  U.run (fun () ->
      check "self" 0 (U.Proc.self ());
      check "max" 1 (U.Proc.max_procs ());
      check "live" 1 (U.Proc.live_procs ()))

let test_uni_release_deadlocks () =
  checkb "deadlock reported" true
    (match U.run (fun () -> U.Proc.release_proc ()) with
    | _ -> false
    | exception Mp_intf.Deadlock _ -> true)

let test_uni_lock_deadlock_detected () =
  U.run (fun () ->
      let l = U.Lock.mutex_lock () in
      U.Lock.lock l;
      match U.Lock.lock l with
      | () -> Alcotest.fail "expected failure"
      | exception Failure _ -> ())

let test_uni_work_noops () =
  U.run (fun () ->
      U.Work.charge 100;
      U.Work.step ~instrs:100 ();
      checkb "wall clock advances" true (U.Work.now () > 0.))

let test_uni_poll_hook () =
  let hits = ref 0 in
  U.run (fun () ->
      U.Work.set_poll_hook (fun () -> incr hits);
      U.Work.poll ();
      U.Work.step ~instrs:1 ());
  U.Work.set_poll_hook (fun () -> ());
  check "hook invoked at safe points" 2 !hits

let test_uni_stats () =
  ignore (U.run (fun () -> 1));
  let st = U.stats () in
  check "procs" 1 st.Stats.procs;
  checkb "elapsed measured" true (st.Stats.elapsed >= 0.)

let test_uni_not_reentrant () =
  U.run (fun () ->
      match U.run (fun () -> 0) with
      | _ -> Alcotest.fail "expected rejection"
      | exception Invalid_argument _ -> ())

(* ---------------- domains ---------------- *)

module D =
  Mp_domains.Int (struct
      let max_procs = 4
    end)
    ()

let test_dom_acquire_release () =
  let v =
    D.run (fun () ->
        (* manufacture a worker that bumps a cell then releases its proc *)
        let cell = Atomic.make 0 in
        let worker =
          Kont_util.cont_of_thunk ~on_return:D.Proc.release_proc (fun () ->
              Atomic.incr cell)
        in
        D.Proc.acquire_proc (D.Proc.PS (worker, 7));
        (* wait for it *)
        while Atomic.get cell = 0 do
          Domain.cpu_relax ()
        done;
        Atomic.get cell)
  in
  check "worker ran" 1 v

let test_dom_no_more_procs () =
  checkb "limit enforced" true
    (D.run (fun () ->
         (* occupy all three spare procs with spinning workers *)
         let stop = Atomic.make false in
         let spin =
           fun () ->
            while not (Atomic.get stop) do
              Domain.cpu_relax ()
            done
         in
         let acquired = ref 0 in
         (try
            for _ = 1 to 10 do
              D.Proc.acquire_proc
                (D.Proc.PS
                   ( Kont_util.cont_of_thunk ~on_return:D.Proc.release_proc spin,
                     0 ));
              incr acquired
            done
          with D.Proc.No_More_Procs -> ());
         let limited = !acquired = 3 in
         Atomic.set stop true;
         limited))

let test_dom_datum_per_proc () =
  let data =
    D.run (fun () ->
        D.Proc.set_datum 100;
        let worker_datum = Atomic.make (-1) in
        let worker =
          Kont_util.cont_of_thunk ~on_return:D.Proc.release_proc (fun () ->
              (* this proc's datum was set by acquire_proc *)
              Atomic.set worker_datum (D.Proc.get_datum ()))
        in
        D.Proc.acquire_proc (D.Proc.PS (worker, 42));
        while Atomic.get worker_datum < 0 do
          Domain.cpu_relax ()
        done;
        (D.Proc.get_datum (), Atomic.get worker_datum))
  in
  Alcotest.(check (pair int int)) "independent data" (100, 42) data

let test_dom_proc_reuse () =
  (* acquire, release, re-acquire: the paper's kernel-thread reuse *)
  let v =
    D.run (fun () ->
        let count = Atomic.make 0 in
        for _ = 1 to 5 do
          let w =
            Kont_util.cont_of_thunk ~on_return:D.Proc.release_proc (fun () ->
                Atomic.incr count)
          in
          D.Proc.acquire_proc (D.Proc.PS (w, 0));
          (* wait for the release so the slot can be reused *)
          while D.Proc.live_procs () > 1 do
            Domain.cpu_relax ()
          done
        done;
        Atomic.get count)
  in
  check "all five workers ran on reused procs" 5 v

let test_dom_exception_propagates () =
  Alcotest.check_raises "root exn" (Failure "bang") (fun () ->
      ignore (D.run (fun () -> failwith "bang")))

let test_dom_deadlock_detected () =
  checkb "deadlock reported" true
    (match D.run (fun () -> D.Proc.release_proc ()) with
    | _ -> false
    | exception Mp_intf.Deadlock _ -> true)

let test_dom_sequential_runs () =
  check "first" 1 (D.run (fun () -> 1));
  check "second" 2 (D.run (fun () -> 2))

let test_dom_result_from_migrated_fiber () =
  (* the root fiber blocks, migrates to another proc, and finishes there *)
  let v =
    D.run (fun () ->
        let resumer : int Engine.cont option Atomic.t = Atomic.make None in
        Engine.callcc (fun (k : int Engine.cont) ->
            (* hand our continuation to a fresh proc and stop this one *)
            let w =
              Kont_util.cont_of_thunk ~on_return:D.Proc.release_proc (fun () ->
                  match Atomic.get resumer with
                  | Some k -> Engine.throw k 99
                  | None -> ())
            in
            Atomic.set resumer (Some k);
            D.Proc.acquire_proc (D.Proc.PS (w, 0));
            D.Proc.release_proc ()))
  in
  check "root result produced on another proc" 99 v

let test_dom_lock_mutual_exclusion () =
  let v =
    D.run (fun () ->
        let l = D.Lock.mutex_lock () in
        let counter = ref 0 in
        let done_ = Atomic.make 0 in
        let iters = 2_000 in
        let body () =
          for _ = 1 to iters do
            D.Lock.lock l;
            incr counter;
            D.Lock.unlock l
          done;
          Atomic.incr done_
        in
        for _ = 1 to 3 do
          D.Proc.acquire_proc
            (D.Proc.PS
               (Kont_util.cont_of_thunk ~on_return:D.Proc.release_proc body, 0))
        done;
        body ();
        while Atomic.get done_ < 4 do
          Domain.cpu_relax ()
        done;
        !counter)
  in
  check "no lost updates" 8_000 v

let test_dom_stats_busy () =
  ignore (D.run (fun () -> Unix.sleepf 0.01));
  let st = D.stats () in
  checkb "root proc busy recorded" true (st.Stats.per_proc.(0).Stats.busy > 0.)

(* ---------------- signals (§3.4) ---------------- *)

module Sig = Mp_signal.Make (U)

let test_sig_install_and_poll () =
  Sig.reset ();
  U.run (fun () ->
      let hits = ref [] in
      Sig.install 3 (Some (fun s -> hits := s :: !hits));
      Sig.deliver 3;
      check "pending before poll" 1 (Sig.pending ());
      Sig.poll ();
      check "handled" 1 (List.length !hits);
      check "drained" 0 (Sig.pending ());
      Sig.poll ();
      check "delivered once" 1 (List.length !hits))

let test_sig_masking () =
  Sig.reset ();
  U.run (fun () ->
      let hits = ref 0 in
      Sig.install 5 (Some (fun _ -> incr hits));
      Sig.mask 5;
      checkb "masked" true (Sig.is_masked 5);
      Sig.deliver 5;
      Sig.poll ();
      check "masked signal stays pending" 0 !hits;
      check "still pending" 1 (Sig.pending ());
      Sig.unmask 5;
      Sig.poll ();
      check "delivered after unmask" 1 !hits)

let test_sig_no_handler () =
  Sig.reset ();
  U.run (fun () ->
      Sig.deliver 7;
      (* polling a signal with no handler simply discards it *)
      Sig.poll ();
      check "discarded" 0 (Sig.pending ()))

let test_sig_remove_handler () =
  Sig.reset ();
  U.run (fun () ->
      let hits = ref 0 in
      Sig.install 2 (Some (fun _ -> incr hits));
      Sig.install 2 None;
      Sig.deliver 2;
      Sig.poll ();
      check "removed handler not called" 0 !hits)

let test_sig_out_of_range () =
  U.run (fun () ->
      match Sig.deliver 9999 with
      | () -> Alcotest.fail "expected rejection"
      | exception Invalid_argument _ -> ())

module SigD = Mp_signal.Make (D)

let test_sig_broadcast_all_procs () =
  Sig.reset ();
  let v =
    D.run (fun () ->
        SigD.reset ();
        let handled = Atomic.make 0 in
        SigD.install 1 (Some (fun _ -> Atomic.incr handled));
        let worker_done = Atomic.make 0 in
        let worker () =
          (* each proc polls and handles its own copy *)
          while Atomic.get handled = 0 && SigD.pending () = 0 do
            Domain.cpu_relax ()
          done;
          SigD.poll ();
          Atomic.incr worker_done
        in
        for _ = 1 to 2 do
          D.Proc.acquire_proc
            (D.Proc.PS
               (Kont_util.cont_of_thunk ~on_return:D.Proc.release_proc worker, 0))
        done;
        SigD.deliver 1;
        SigD.poll ();
        while Atomic.get worker_done < 2 do
          Domain.cpu_relax ()
        done;
        Atomic.get handled)
  in
  check "every proc received the signal" 3 v

let test_sig_deliver_to_one () =
  Sig.reset ();
  U.run (fun () ->
      let hits = ref 0 in
      Sig.install 4 (Some (fun _ -> incr hits));
      Sig.deliver_to ~proc:0 4;
      Sig.poll ();
      check "targeted delivery" 1 !hits)

(* ---------------- continuation plumbing ---------------- *)

let test_kont_cont_of_thunk_order () =
  U.run (fun () ->
      let log = ref [] in
      Engine.callcc (fun k ->
          let w =
            Kont_util.cont_of_thunk
              ~on_return:(fun () -> Engine.throw k ())
              (fun () -> log := "ran" :: !log)
          in
          log := "made" :: !log;
          Engine.throw w ());
      Alcotest.(check (list string))
        "thunk runs only when thrown to" [ "ran"; "made" ] !log)

let test_kont_one_shot_reuse () =
  U.run (fun () ->
      let saved = ref None in
      Engine.callcc (fun k ->
          let w =
            Kont_util.cont_of_thunk
              ~on_return:(fun () -> Engine.throw k ())
              (fun () -> ())
          in
          saved := Some w;
          Engine.throw w ());
      match !saved with
      | None -> Alcotest.fail "no continuation captured"
      | Some w ->
          (* [resume] claims the one-shot continuation synchronously;
             [throw] would surface the same error via the scheduler *)
          checkb "second resume raises Already_resumed" true
            (match Engine.resume w () with
            | _ -> false
            | exception Engine.Already_resumed -> true))

(* ---------------- counted (nesting) signal masks ---------------- *)

let test_sig_mask_nesting () =
  Sig.reset ();
  U.run (fun () ->
      let hits = ref 0 in
      Sig.install 6 (Some (fun _ -> incr hits));
      Sig.mask 6;
      Sig.mask 6;
      Sig.unmask 6;
      checkb "still masked after one of two unmasks" true (Sig.is_masked 6);
      Sig.deliver 6;
      Sig.poll ();
      check "nested mask defers delivery" 0 !hits;
      Sig.unmask 6;
      checkb "unmasked when the count reaches zero" false (Sig.is_masked 6);
      Sig.poll ();
      check "deferred signal delivered" 1 !hits;
      Sig.unmask 6;
      checkb "unmask floors at zero" false (Sig.is_masked 6))

(* ---------------- backend conformance ----------------

   One functor, instantiated for every PLATFORM implementation in the
   repo: the portable subset of the proc/lock/stats contracts that any
   backend — preemptive (domains), uniprocessor, simulated, or the
   exploration checker — must satisfy.  All waiting goes through
   [Work.idle_until] so the same code is correct under true parallelism
   and under cooperative scheduling, and every write a waiter reads is
   followed by [Work.wake_idle], as its contract asks: a simulated
   poller sleeps until a hint, a deadline or a proc's acquire or
   release. *)

module Conformance (B : Mp_intf.PLATFORM with type Proc.proc_datum = int) =
struct
  (* Every case's [run] that returns a value has ended every fiber it
     started: the engine's live-fiber count is back at its start value.
     A fiber left live is a stack the platform never frees. *)
  module P = struct
    include B

    let run f =
      let live = Engine.live_fibers () in
      let v = B.run f in
      check (B.name ^ ": live fibers back at start") live
        (Engine.live_fibers ());
      v
  end

  (* A worker the pool refuses is a continuation nobody will resume: end
     its fiber rather than leave it live. *)
  let spawn_worker ?(datum = 0) body =
    let k = Kont_util.cont_of_thunk ~on_return:P.Proc.release_proc body in
    try P.Proc.acquire_proc (P.Proc.PS (k, datum))
    with P.Proc.No_More_Procs as e ->
      Engine.discard k;
      raise e

  let join () = P.Work.idle_until ~ready:(fun () -> P.Proc.live_procs () = 1)

  let test_identity () =
    P.run (fun () ->
        check "root is proc 0" 0 (P.Proc.self ());
        checkb "max_procs positive" true (P.Proc.max_procs () >= 1);
        check "one live proc at start" 1 (P.Proc.live_procs ()))

  let test_datum_roundtrip () =
    let v =
      P.run (fun () ->
          P.Proc.set_datum 41;
          P.Proc.get_datum () + 1)
    in
    check "root datum round trip" 42 v

  let test_worker_datum () =
    (* needs a spare proc; trivially true on a uniprocessor *)
    if P.run (fun () -> P.Proc.max_procs ()) > 1 then begin
      let v =
        P.run (fun () ->
            P.Proc.set_datum 100;
            let got = Atomic.make (-1) in
            spawn_worker ~datum:42 (fun () ->
                Atomic.set got (P.Proc.get_datum ());
                P.Work.wake_idle ());
            P.Work.idle_until ~ready:(fun () -> Atomic.get got >= 0);
            join ();
            (P.Proc.get_datum (), Atomic.get got))
      in
      Alcotest.(check (pair int int)) "data are per-proc" (100, 42) v
    end

  let test_exhaustion () =
    checkb "pool exhausts after max_procs - 1 workers" true
      (P.run (fun () ->
           let spare = P.Proc.max_procs () - 1 in
           let release = Atomic.make false in
           let started = Atomic.make 0 in
           let acquired = ref 0 in
           (try
              for _ = 1 to spare + 1 do
                spawn_worker (fun () ->
                    Atomic.incr started;
                    P.Work.idle_until ~ready:(fun () -> Atomic.get release));
                incr acquired
              done
            with P.Proc.No_More_Procs -> ());
           let limited = !acquired = spare in
           Atomic.set release true;
           P.Work.wake_idle ();
           join ();
           limited && Atomic.get started = spare))

  let test_lock_mutual_exclusion () =
    let expected, got =
      P.run (fun () ->
          let iters = 200 in
          let workers = min 2 (P.Proc.max_procs () - 1) in
          let l = P.Lock.mutex_lock () in
          let counter = ref 0 in
          let body () =
            for _ = 1 to iters do
              P.Lock.lock l;
              let c = !counter in
              (* widen the race window: a visible step inside the section *)
              P.Work.step ~instrs:1 ();
              counter := c + 1;
              P.Lock.unlock l
            done
          in
          for _ = 1 to workers do
            spawn_worker body
          done;
          body ();
          join ();
          ((workers + 1) * iters, !counter))
    in
    check "no lost updates under the platform lock" expected got

  let test_try_lock_contract () =
    P.run (fun () ->
        let l = P.Lock.mutex_lock () in
        checkb "free lock acquired" true (P.Lock.try_lock l);
        checkb "held lock refused" false (P.Lock.try_lock l);
        P.Lock.unlock l;
        checkb "free again after unlock" true (P.Lock.try_lock l);
        P.Lock.unlock l)

  let test_stats_contract () =
    P.reset_stats ();
    ignore (P.run (fun () -> P.Work.step ~instrs:10 (); 0));
    let st = P.stats () in
    checkb "platform name non-empty" true (String.length st.Stats.platform > 0);
    check "stats cover every proc" (Array.length st.Stats.per_proc)
      st.Stats.procs;
    checkb "elapsed non-negative" true (st.Stats.elapsed >= 0.)

  let test_exceptions_and_reuse () =
    Alcotest.check_raises "exception propagates" (Failure "boom") (fun () ->
        ignore (P.run (fun () -> failwith "boom")));
    check "platform reusable after failed run" 3 (P.run (fun () -> 3))

  (* Exception outcomes.  [run]'s result is the same on every backend: an
     exception that escaped any proc's fiber wins over the root's value.
     The non-root cases need a spare proc. *)
  let multi () = P.run (fun () -> P.Proc.max_procs ()) > 1

  let test_worker_raises_after_root () =
    if multi () then
      Alcotest.check_raises "worker's exception wins" (Failure "late")
        (fun () ->
          ignore
            (P.run (fun () ->
                 let root_done = Atomic.make false in
                 spawn_worker (fun () ->
                     P.Work.idle_until ~ready:(fun () -> Atomic.get root_done);
                     failwith "late");
                 Atomic.set root_done true;
                 P.Work.wake_idle ();
                 0)))

  let test_double_resume () =
    if multi () then
      Alcotest.check_raises "one-shot violation" Engine.Already_resumed
        (fun () ->
          ignore
            (P.run (fun () ->
                 spawn_worker (fun () ->
                     let saved = ref None in
                     (* the body's normal return resumes [k] once *)
                     Engine.callcc (fun k -> saved := Some k);
                     match !saved with
                     | Some k ->
                         saved := None;
                         Engine.throw k ()
                     | None -> ());
                 0)));
    check "platform reusable after the violation" 3 (P.run (fun () -> 3))

  let test_root_raises () =
    Alcotest.check_raises "root's exception" (Failure "root") (fun () ->
        ignore
          (P.run (fun () ->
               if P.Proc.max_procs () > 1 then spawn_worker P.Work.poll;
               failwith "root")))

  (* Every scheduler policy must run a thread pool to completion on every
     backend — preemptive, cooperative, simulated, and checked — with no
     task lost or duplicated. *)
  module ST = Mpthreads.Sched_thread.Make (P)

  let test_sched_policies () =
    List.iter
      (fun sched ->
        let label = Mpthreads.Sched_policy.to_string sched in
        let v =
          P.run (fun () ->
              let procs = min 2 (P.Proc.max_procs ()) in
              let total = Atomic.make 0 in
              ST.with_pool ~procs ~quantum:1e6 ~sched (fun () ->
                  ST.fork_join
                    (List.init 4 (fun i () ->
                         ignore (Atomic.fetch_and_add total (i + 1)))));
              Atomic.get total)
        in
        check (Printf.sprintf "policy %s: all tasks ran once" label) 10 v)
      Mpthreads.Sched_policy.[ Fifo; Lifo; Distributed; Ws; Micropools 2 ]

  (* Every way out of a fiber ends it: a callcc body that returns, raises
     or throws, a released proc, and a thread pool's switches and exits
     ([P.run] checks the count). *)
  let test_fibers_ended () =
    let v =
      P.run (fun () ->
          let a = Engine.callcc (fun _ -> 1) in
          let b = Engine.callcc (fun k -> Engine.throw k 2) in
          let c =
            try Engine.callcc (fun _ -> failwith "c") with Failure _ -> 3
          in
          if P.Proc.max_procs () > 1 then begin
            spawn_worker ignore;
            join ()
          end;
          ST.with_pool ~procs:(min 2 (P.Proc.max_procs ())) ~quantum:1e6
            (fun () -> ST.fork_join [ ST.yield; ST.yield ]);
          a + b + c)
    in
    check "values delivered" 6 v

  (* The server pipeline end-to-end on this backend: a fixed 200-request
     closed-burst trace (rate = infinity ⇒ every arrival at t = 0, so no
     sleep timers — it runs under the checker's single schedule too);
     every reply must come back, and with one worker per shard each
     shard must process its requests in FIFO (id) order. *)
  module Server = Workloads.Server.Make (P)

  let test_server_pipeline () =
    let cfg =
      {
        Workloads.Server.default with
        Workloads.Server.requests = 200;
        rate = infinity;
        shards = 2;
        queue_cap = 4;
        record_order = true;
      }
    in
    let procs = min 2 (P.run (fun () -> P.Proc.max_procs ())) in
    let r = Server.run ~procs ~quantum:1e6 cfg in
    check "all replies received" 200 r.Workloads.Server.completed;
    check "histogram holds every latency" 200
      (Obs.Histogram.count r.Workloads.Server.hist);
    Array.iteri
      (fun s order ->
        let expected =
          List.filter
            (fun id -> Workloads.Server.shard_of cfg id = s)
            (List.init 200 Fun.id)
        in
        Alcotest.(check (list int))
          (Printf.sprintf "shard %d processes in FIFO order" s)
          expected order)
      r.Workloads.Server.order

  let suite =
    [
      Alcotest.test_case "identity" `Quick test_identity;
      Alcotest.test_case "datum round trip" `Quick test_datum_roundtrip;
      Alcotest.test_case "worker datum" `Quick test_worker_datum;
      Alcotest.test_case "No_More_Procs on exhaustion" `Quick test_exhaustion;
      Alcotest.test_case "lock mutual exclusion" `Quick
        test_lock_mutual_exclusion;
      Alcotest.test_case "try_lock contract" `Quick test_try_lock_contract;
      Alcotest.test_case "stats contract" `Quick test_stats_contract;
      Alcotest.test_case "exceptions and reuse" `Quick
        test_exceptions_and_reuse;
      Alcotest.test_case "worker raises after root returned" `Quick
        test_worker_raises_after_root;
      Alcotest.test_case "continuation resumed twice" `Quick
        test_double_resume;
      Alcotest.test_case "root raises" `Quick test_root_raises;
      Alcotest.test_case "scheduler policy family" `Quick test_sched_policies;
      Alcotest.test_case "live fibers back at start" `Quick test_fibers_ended;
      Alcotest.test_case "server pipeline" `Quick test_server_pipeline;
    ]
end

module Conf_uni = Conformance (U)
module Conf_dom = Conformance (D)

module Sim4 =
  Sim.Mp_sim.Int (struct
      let config = Sim.Sim_config.sequent ~procs:4 ()
    end)
    ()

module Conf_sim = Conformance (Sim4)

module Check2 = Mpcheck.Mp_check.Int (struct
  let max_procs = 2
end) ()

module Conf_check = Conformance (Check2)

(* ---------------- host words per operation ---------------- *)

(* Minor-heap words one operation of each layer allocates on a backend:
   [Gc.minor_words] over 1000 operations, the operations of the
   benchmark's per-layer probes.  Unlike host nanoseconds these are exact,
   so each is held to a per-backend ceiling: a layer that starts
   allocating more fails here.  The uniprocessor and one-proc domains
   measure the same words; the one-proc simulator adds the host cost of
   its own scheduling to some rows.  The yield row has
   a partner thread queued, as the probe does, but the default policy
   hands the proc straight back to the yielder, so it is the cost of one
   yield, not of a round trip through the partner. *)
module Words (P : Mp_intf.PLATFORM_INT) = struct
  module Sched = Mpthreads.Sched_thread.Make (P)
  module Sy = Mpsync.Sync.Make (P) (Sched)
  module Chan = Cml.Make (P) (Sched)

  let ops = 1000

  (* Words per call of [op] in the steady state (after one warm-up batch,
     which pays any one-time growth), net of the probe's own cost. *)
  let per_op op =
    let batch () =
      for _ = 1 to ops do
        op ()
      done
    in
    let words f =
      let before = Gc.minor_words () in
      f ();
      Gc.minor_words () -. before
    in
    batch ();
    let probe = words ignore in
    (words batch -. probe) /. float_of_int ops

  let in_pool ?sched f = P.run (fun () -> Sched.with_pool ~procs:1 ?sched f)

  (* the other side of a two-thread operation, until [stop] is set *)
  let with_partner partner f =
    in_pool (fun () ->
        let stop = ref false in
        Sched.fork (fun () -> partner stop);
        let r = f () in
        stop := true;
        r)

  (* (operation, measured words per op) *)
  let measured () =
    let l = P.Lock.mutex_lock () in
    let ch = Chan.channel () in
    [
      ( "suspend/resume",
        P.run (fun () ->
            per_op (fun () -> Engine.suspend (fun c -> Engine.Resume (c, ())))) );
      ( "callcc + throw",
        P.run (fun () ->
            per_op (fun () -> ignore (P.Kont.callcc (fun k -> P.Kont.throw k 1))))
      );
      ( "fork_join of one child",
        in_pool (fun () -> per_op (fun () -> Sched.fork_join [ ignore ])) );
      (* the child is taken back and run in the parent's fiber *)
      ( "fork_join of one child under ws",
        in_pool ~sched:Mpthreads.Sched_policy.Ws (fun () ->
            per_op (fun () -> Sched.fork_join [ ignore ])) );
      ( "yield",
        with_partner
          (fun stop ->
            while not !stop do
              Sched.yield ()
            done)
          (fun () -> per_op Sched.yield) );
      ( "lock/unlock",
        P.run (fun () ->
            per_op (fun () ->
                P.Lock.lock l;
                P.Lock.unlock l)) );
      ( "semaphore release + acquire",
        in_pool (fun () ->
            let s = Sy.Semaphore.create 0 in
            per_op (fun () ->
                Sy.Semaphore.release s;
                Sy.Semaphore.acquire s)) );
      ( "CML send/recv",
        with_partner
          (fun stop ->
            while not !stop do
              Chan.send ch ()
            done)
          (fun () ->
            let w = per_op (fun () -> Chan.recv ch) in
            (* release the partner from its last send *)
            ignore (Chan.recv_poll ch);
            w) );
    ]

  (* [ceilings]: (operation, words per op) for this backend *)
  let test ceilings () =
    List.iter
      (fun (op, w) ->
        let ceiling = List.assoc op ceilings in
        if w > ceiling then
          Alcotest.failf "%s on %s: %.3f words per op, ceiling %.1f" op P.name w
            ceiling)
      (measured ())

  let suspensions f =
    let s0 = Engine.suspensions () in
    f ();
    Engine.suspensions () - s0

  (* A park or sync takes its lock and decides first, so a call that finds
     what it needs captures no continuation: it performs no suspension. *)
  let no_capture () =
    let module K = Mpthreads.Park.Make (P) (Sched) in
    let module L = K.Sync (struct end) in
    let recv = ref (-1) in
    let counts =
      in_pool (fun () ->
          let s = Sy.Semaphore.create 1 in
          let m = L.Mutex.create () in
          let iv = Sy.Ivar.create () in
          Sy.Ivar.fill iv 1;
          let mv = Sy.Mvar.create () in
          Sy.Mvar.put mv 1;
          let ch = Chan.channel () in
          (* A one-proc pool runs the forked receiver only once the root
             blocks, so the root's send is parked when the receiver syncs. *)
          Sched.fork (fun () -> recv := suspensions (fun () -> Chan.recv ch));
          Chan.send ch ();
          [
            ( "Semaphore.acquire with a permit free",
              suspensions (fun () -> Sy.Semaphore.acquire s) );
            ( "Sync mutex lock of a free mutex",
              suspensions (fun () -> L.Mutex.lock m) );
            ( "Ivar.read of a filled ivar",
              suspensions (fun () -> ignore (Sy.Ivar.read iv)) );
            ( "Mvar.take of a full mvar",
              suspensions (fun () -> ignore (Sy.Mvar.take mv)) );
          ])
    in
    (* No thief can take a child from a one-proc pool, so both are taken
       back and run in the parent's fiber, which never waits. *)
    let fork_join =
      in_pool ~sched:Mpthreads.Sched_policy.Ws (fun () ->
          suspensions (fun () -> Sched.fork_join [ ignore; ignore ]))
    in
    List.iter
      (fun (call, n) -> Alcotest.(check int) (call ^ " on " ^ P.name) 0 n)
      (counts
      @ [
          ("Cml.recv with its sender parked", !recv);
          ("fork_join of two children under ws, one-proc pool", fork_join);
        ])
end

module Words_uni = Words (Mp_uniproc.Int ())

module Words_dom = Words (Mp_domains.Int (struct
  let max_procs = 1
end) ())

module Words_sim = Words (Sim.Mp_sim.Int (struct
  let config = Sim.Sim_config.sequent ~procs:1 ()
end) ())

let real_ceilings =
  [
    ("suspend/resume", 20.);
    ("callcc + throw", 66.);
    ("fork_join of one child", 151.);
    ("fork_join of one child under ws", 35.);
    ("yield", 88.);
    ("lock/unlock", 0.);
    ("semaphore release + acquire", 6.);
    ("CML send/recv", 270.5);
  ]

let sim_ceilings =
  [
    ("suspend/resume", 20.);
    ("callcc + throw", 66.);
    ("fork_join of one child", 244.);
    ("fork_join of one child under ws", 38.);
    ("yield", 118.);
    ("lock/unlock", 0.);
    ("semaphore release + acquire", 6.);
    ("CML send/recv", 303.5);
  ]

let () =
  Alcotest.run "mp"
    [
      ( "uniproc",
        [
          Alcotest.test_case "acquire fails" `Quick test_uni_acquire_fails;
          Alcotest.test_case "datum" `Quick test_uni_datum;
          Alcotest.test_case "identity" `Quick test_uni_identity;
          Alcotest.test_case "release deadlocks" `Quick
            test_uni_release_deadlocks;
          Alcotest.test_case "lock deadlock detected" `Quick
            test_uni_lock_deadlock_detected;
          Alcotest.test_case "work no-ops" `Quick test_uni_work_noops;
          Alcotest.test_case "poll hook" `Quick test_uni_poll_hook;
          Alcotest.test_case "stats" `Quick test_uni_stats;
          Alcotest.test_case "not reentrant" `Quick test_uni_not_reentrant;
        ] );
      ( "domains",
        [
          Alcotest.test_case "acquire/release" `Quick test_dom_acquire_release;
          Alcotest.test_case "No_More_Procs" `Quick test_dom_no_more_procs;
          Alcotest.test_case "datum per proc" `Quick test_dom_datum_per_proc;
          Alcotest.test_case "proc reuse" `Quick test_dom_proc_reuse;
          Alcotest.test_case "exception propagates" `Quick
            test_dom_exception_propagates;
          Alcotest.test_case "deadlock detected" `Quick
            test_dom_deadlock_detected;
          Alcotest.test_case "sequential runs" `Quick test_dom_sequential_runs;
          Alcotest.test_case "migrated root fiber" `Quick
            test_dom_result_from_migrated_fiber;
          Alcotest.test_case "lock mutual exclusion" `Slow
            test_dom_lock_mutual_exclusion;
          Alcotest.test_case "stats busy" `Quick test_dom_stats_busy;
        ] );
      ( "signals",
        [
          Alcotest.test_case "install and poll" `Quick test_sig_install_and_poll;
          Alcotest.test_case "masking" `Quick test_sig_masking;
          Alcotest.test_case "no handler" `Quick test_sig_no_handler;
          Alcotest.test_case "remove handler" `Quick test_sig_remove_handler;
          Alcotest.test_case "out of range" `Quick test_sig_out_of_range;
          Alcotest.test_case "broadcast to all procs" `Quick
            test_sig_broadcast_all_procs;
          Alcotest.test_case "deliver to one" `Quick test_sig_deliver_to_one;
          Alcotest.test_case "mask nesting" `Quick test_sig_mask_nesting;
        ] );
      ( "kont",
        [
          Alcotest.test_case "cont_of_thunk ordering" `Quick
            test_kont_cont_of_thunk_order;
          Alcotest.test_case "one-shot reuse raises" `Quick
            test_kont_one_shot_reuse;
        ] );
      ("conformance:uniproc", Conf_uni.suite);
      ("conformance:domains", Conf_dom.suite);
      ("conformance:sim", Conf_sim.suite);
      ("conformance:check", Conf_check.suite);
      ( "words per op",
        [
          Alcotest.test_case "uniproc" `Quick (Words_uni.test real_ceilings);
          Alcotest.test_case "one-proc domains" `Quick
            (Words_dom.test real_ceilings);
          Alcotest.test_case "one-proc simulated Sequent" `Quick
            (Words_sim.test sim_ceilings);
        ] );
      (* a construct that does not block captures no continuation *)
      ( "no capture",
        [
          Alcotest.test_case "uniproc" `Quick Words_uni.no_capture;
          Alcotest.test_case "one-proc simulated Sequent" `Quick
            Words_sim.no_capture;
        ] );
    ]
