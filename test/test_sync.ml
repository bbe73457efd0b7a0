(* Synchronization constructs (§3.3: synthesized from locks, refs and
   continuations): ivar, mvar, semaphore, rwlock, barrier, countdown.
   Run on the deterministic simulated backend. *)

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)

module P =
  Sim.Mp_sim.Int (struct
      let config = Sim.Sim_config.sequent ~procs:4 ()
    end)
    ()

module S = Mpthreads.Sched_thread.Make (P)
module Sync = Mpsync.Sync.Make (P) (S)

let in_pool ?procs f = P.run (fun () -> S.with_pool ?procs f)

(* ---------------- Ivar ---------------- *)

let test_ivar_fill_then_read () =
  let v =
    in_pool (fun () ->
        let iv = Sync.Ivar.create () in
        Sync.Ivar.fill iv 3;
        Sync.Ivar.read iv)
  in
  check "immediate read" 3 v

let test_ivar_read_blocks () =
  let v =
    in_pool (fun () ->
        let iv = Sync.Ivar.create () in
        S.fork (fun () -> Sync.Ivar.fill iv 9);
        Sync.Ivar.read iv)
  in
  check "blocked reader woken" 9 v

let test_ivar_multiple_readers () =
  let v =
    in_pool (fun () ->
        let iv = Sync.Ivar.create () in
        let sum = Atomic.make 0 in
        let done_ = Atomic.make 0 in
        for _ = 1 to 5 do
          S.fork (fun () ->
              ignore (Atomic.fetch_and_add sum (Sync.Ivar.read iv));
              Atomic.incr done_)
        done;
        S.yield ();
        Sync.Ivar.fill iv 4;
        while Atomic.get done_ < 5 do
          S.yield ()
        done;
        Atomic.get sum)
  in
  check "all readers woken with the value" 20 v

let test_ivar_double_fill () =
  in_pool (fun () ->
      let iv = Sync.Ivar.create () in
      Sync.Ivar.fill iv 1;
      match Sync.Ivar.fill iv 2 with
      | () -> Alcotest.fail "second fill must raise"
      | exception Sync.Ivar.Already_filled -> ())

let test_ivar_poll () =
  in_pool (fun () ->
      let iv = Sync.Ivar.create () in
      Alcotest.(check (option int)) "empty" None (Sync.Ivar.poll iv);
      Sync.Ivar.fill iv 6;
      Alcotest.(check (option int)) "filled" (Some 6) (Sync.Ivar.poll iv))

(* ---------------- Mvar ---------------- *)

let test_mvar_put_take () =
  let v =
    in_pool (fun () ->
        let mv = Sync.Mvar.create () in
        Sync.Mvar.put mv 5;
        Sync.Mvar.take mv)
  in
  check "round trip" 5 v

let test_mvar_take_blocks () =
  let v =
    in_pool (fun () ->
        let mv = Sync.Mvar.create () in
        S.fork (fun () -> Sync.Mvar.put mv 8);
        Sync.Mvar.take mv)
  in
  check "blocked taker" 8 v

let test_mvar_put_blocks_when_full () =
  let v =
    in_pool (fun () ->
        let mv = Sync.Mvar.create () in
        Sync.Mvar.put mv 1;
        let put_done = ref false in
        S.fork (fun () ->
            Sync.Mvar.put mv 2;
            put_done := true);
        S.yield ();
        checkb "second put blocked" false !put_done;
        let a = Sync.Mvar.take mv in
        while not !put_done do
          S.yield ()
        done;
        let b = Sync.Mvar.take mv in
        (a * 10) + b)
  in
  check "handoff order" 12 v

let test_mvar_pipeline () =
  let v =
    in_pool (fun () ->
        let mv = Sync.Mvar.create () in
        let out = Sync.Mvar.create () in
        S.fork (fun () ->
            let acc = ref 0 in
            for _ = 1 to 20 do
              acc := !acc + Sync.Mvar.take mv
            done;
            Sync.Mvar.put out !acc);
        for i = 1 to 20 do
          Sync.Mvar.put mv i
        done;
        Sync.Mvar.take out)
  in
  check "pipeline sum" 210 v

let test_mvar_try_take () =
  in_pool (fun () ->
      let mv = Sync.Mvar.create () in
      Alcotest.(check (option int)) "empty" None (Sync.Mvar.try_take mv);
      Sync.Mvar.put mv 3;
      Alcotest.(check (option int)) "full" (Some 3) (Sync.Mvar.try_take mv);
      Alcotest.(check (option int)) "drained" None (Sync.Mvar.try_take mv))

(* ---------------- Semaphore ---------------- *)

let test_semaphore_counting () =
  in_pool (fun () ->
      let s = Sync.Semaphore.create 2 in
      Sync.Semaphore.acquire s;
      Sync.Semaphore.acquire s;
      check "exhausted" 0 (Sync.Semaphore.value s);
      checkb "try fails" false (Sync.Semaphore.try_acquire s);
      Sync.Semaphore.release s;
      checkb "try succeeds" true (Sync.Semaphore.try_acquire s);
      Sync.Semaphore.release s;
      Sync.Semaphore.release s)

let test_semaphore_blocking () =
  let v =
    in_pool (fun () ->
        let s = Sync.Semaphore.create 0 in
        let got = ref 0 in
        S.fork (fun () ->
            Sync.Semaphore.acquire s;
            got := 1);
        S.yield ();
        checkb "blocked at zero" true (!got = 0);
        Sync.Semaphore.release s;
        while !got = 0 do
          S.yield ()
        done;
        !got)
  in
  check "released waiter proceeds" 1 v

let test_semaphore_bounds_concurrency () =
  let v =
    in_pool (fun () ->
        let s = Sync.Semaphore.create 3 in
        let inside = Atomic.make 0 in
        let peak = Atomic.make 0 in
        let done_ = Atomic.make 0 in
        for _ = 1 to 12 do
          S.fork (fun () ->
              Sync.Semaphore.acquire s;
              let now = Atomic.fetch_and_add inside 1 + 1 in
              let rec bump () =
                let p = Atomic.get peak in
                if now > p && not (Atomic.compare_and_set peak p now) then
                  bump ()
              in
              bump ();
              S.yield ();
              ignore (Atomic.fetch_and_add inside (-1));
              Sync.Semaphore.release s;
              Atomic.incr done_)
        done;
        while Atomic.get done_ < 12 do
          S.yield ()
        done;
        Atomic.get peak)
  in
  checkb "never more than 3 inside" true (v <= 3 && v >= 1)

(* ---------------- Rwlock ---------------- *)

let test_rwlock_readers_share () =
  in_pool (fun () ->
      let rw = Sync.Rwlock.create () in
      Sync.Rwlock.read_lock rw;
      Sync.Rwlock.read_lock rw;
      (* two concurrent readers: no deadlock *)
      Sync.Rwlock.read_unlock rw;
      Sync.Rwlock.read_unlock rw)

let test_rwlock_writer_excludes () =
  let v =
    in_pool (fun () ->
        let rw = Sync.Rwlock.create () in
        let log = ref [] in
        Sync.Rwlock.write_lock rw;
        S.fork (fun () ->
            Sync.Rwlock.read_lock rw;
            log := `Reader :: !log;
            Sync.Rwlock.read_unlock rw);
        S.yield ();
        log := `Writer :: !log;
        Sync.Rwlock.write_unlock rw;
        while List.length !log < 2 do
          S.yield ()
        done;
        List.rev !log = [ `Writer; `Reader ])
  in
  checkb "reader waited for writer" true v

let test_rwlock_writer_preference () =
  let v =
    in_pool (fun () ->
        let rw = Sync.Rwlock.create () in
        let log = ref [] in
        Sync.Rwlock.read_lock rw;
        (* a writer queues; a later reader must NOT overtake it *)
        S.fork (fun () ->
            Sync.Rwlock.write_lock rw;
            log := `Writer :: !log;
            Sync.Rwlock.write_unlock rw);
        S.yield ();
        S.fork (fun () ->
            Sync.Rwlock.read_lock rw;
            log := `Reader2 :: !log;
            Sync.Rwlock.read_unlock rw);
        S.yield ();
        Sync.Rwlock.read_unlock rw;
        while List.length !log < 2 do
          S.yield ()
        done;
        List.rev !log = [ `Writer; `Reader2 ])
  in
  checkb "writer served before late reader" true v

let test_rwlock_with_helpers () =
  let v =
    in_pool (fun () ->
        let rw = Sync.Rwlock.create () in
        let cell = ref 0 in
        Sync.Rwlock.with_write rw (fun () -> cell := 5);
        Sync.Rwlock.with_read rw (fun () -> !cell))
  in
  check "helpers" 5 v

let test_rwlock_misuse () =
  in_pool (fun () ->
      let rw = Sync.Rwlock.create () in
      (match Sync.Rwlock.read_unlock rw with
      | () -> Alcotest.fail "expected rejection"
      | exception Invalid_argument _ -> ());
      match Sync.Rwlock.write_unlock rw with
      | () -> Alcotest.fail "expected rejection"
      | exception Invalid_argument _ -> ())

(* ---------------- Barrier ---------------- *)

let test_barrier_releases_all () =
  let indices = Array.make 4 (-1) in
  let v =
    in_pool (fun () ->
        let b = Sync.Barrier.create ~parties:4 in
        let passed = Atomic.make 0 in
        for i = 1 to 3 do
          S.fork (fun () ->
              indices.(i) <- Sync.Barrier.await b;
              Atomic.incr passed)
        done;
        S.yield ();
        checkb "nobody passed early" true (Atomic.get passed = 0);
        indices.(0) <- Sync.Barrier.await b;
        while Atomic.get passed < 3 do
          S.yield ()
        done;
        Atomic.get passed)
  in
  check "all released together" 3 v;
  Alcotest.(check (list int))
    "parties receive the distinct arrival indices 0..3" [ 0; 1; 2; 3 ]
    (List.sort compare (Array.to_list indices))

let test_barrier_cyclic () =
  let v =
    in_pool (fun () ->
        let b = Sync.Barrier.create ~parties:2 in
        let rounds = 5 in
        let partner_rounds = ref 0 in
        S.fork (fun () ->
            for _ = 1 to rounds do
              ignore (Sync.Barrier.await b);
              incr partner_rounds
            done);
        for _ = 1 to rounds do
          ignore (Sync.Barrier.await b)
        done;
        while !partner_rounds < rounds do
          S.yield ()
        done;
        !partner_rounds)
  in
  check "barrier reusable" 5 v

let test_barrier_arrival_index () =
  in_pool (fun () ->
      let b = Sync.Barrier.create ~parties:1 in
      check "single party passes with index 0" 0 (Sync.Barrier.await b))

(* ---------------- Future ---------------- *)

let test_future_touch () =
  let v =
    in_pool (fun () ->
        let f = Sync.Future.spawn (fun () -> 6 * 7) in
        Sync.Future.touch f)
  in
  check "computed in parallel" 42 v

let test_future_of_value () =
  let v = in_pool (fun () -> Sync.Future.(touch (of_value 5))) in
  check "immediate" 5 v

let test_future_poll () =
  in_pool (fun () ->
      let gate = Sync.Ivar.create () in
      let f = Sync.Future.spawn (fun () -> Sync.Ivar.read gate) in
      Alcotest.(check (option int)) "not ready" None (Sync.Future.poll f);
      Sync.Ivar.fill gate 3;
      check "touch after fill" 3 (Sync.Future.touch f))

let test_future_map () =
  let v =
    in_pool (fun () ->
        let f = Sync.Future.spawn (fun () -> 10) in
        Sync.Future.touch (Sync.Future.map (fun x -> x + 1) f))
  in
  check "mapped" 11 v

let test_future_tree () =
  (* a small parallel divide-and-conquer with futures *)
  let v =
    in_pool (fun () ->
        let rec fib n =
          if n < 2 then n
          else begin
            let a = Sync.Future.spawn (fun () -> fib (n - 1)) in
            let b = fib (n - 2) in
            Sync.Future.touch a + b
          end
        in
        fib 10)
  in
  check "fib 10" 55 v

(* ---------------- Countdown ---------------- *)

let test_countdown () =
  let v =
    in_pool (fun () ->
        let c = Sync.Countdown.create 3 in
        let passed = ref false in
        S.fork (fun () ->
            Sync.Countdown.await c;
            passed := true);
        S.yield ();
        checkb "blocked at 3" false !passed;
        Sync.Countdown.count_down c;
        Sync.Countdown.count_down c;
        S.yield ();
        checkb "blocked at 1" false !passed;
        Sync.Countdown.count_down c;
        while not !passed do
          S.yield ()
        done;
        check "remaining" 0 (Sync.Countdown.remaining c);
        true)
  in
  checkb "released at zero" true v

let test_countdown_already_zero () =
  in_pool (fun () ->
      let c = Sync.Countdown.create 0 in
      (* await on an already-open latch returns immediately *)
      Sync.Countdown.await c;
      Sync.Countdown.count_down c;
      check "stays at zero" 0 (Sync.Countdown.remaining c))

(* ---------------- brackets left by a throw ----------------

   A thread captures [k] outside a locked bracket and throws to it from
   inside.  The fiber it leaves is ended, and an ended fiber's frames run
   no client code: the bracket skips its release, as if the fiber had
   been dropped mid-section, so the lock is still held afterwards. *)

module M3 = Mpthreads.M3_thread.Make (P) (S)

let test_rwlock_bracket_left_by_throw () =
  let v =
    in_pool ~procs:1 (fun () ->
        let rw = Sync.Rwlock.create () in
        let v =
          Mp.Engine.callcc (fun k ->
              Sync.Rwlock.with_write rw (fun () -> Mp.Engine.throw k 7))
        in
        (* raises Invalid_argument unless the lock is still write-held *)
        Sync.Rwlock.write_unlock rw;
        v)
  in
  check "thrown value" 7 v

let test_mutex_bracket_left_by_throw () =
  let v, free =
    in_pool ~procs:1 (fun () ->
        let m = M3.Mutex.create () in
        let v =
          Mp.Engine.callcc (fun k ->
              M3.Mutex.with_lock m (fun () -> Mp.Engine.throw k 7))
        in
        (v, M3.Mutex.try_lock m))
  in
  check "thrown value" 7 v;
  checkb "mutex still held" false free

let () =
  Alcotest.run "sync"
    [
      ( "ivar",
        [
          Alcotest.test_case "fill then read" `Quick test_ivar_fill_then_read;
          Alcotest.test_case "read blocks" `Quick test_ivar_read_blocks;
          Alcotest.test_case "multiple readers" `Quick
            test_ivar_multiple_readers;
          Alcotest.test_case "double fill" `Quick test_ivar_double_fill;
          Alcotest.test_case "poll" `Quick test_ivar_poll;
        ] );
      ( "mvar",
        [
          Alcotest.test_case "put/take" `Quick test_mvar_put_take;
          Alcotest.test_case "take blocks" `Quick test_mvar_take_blocks;
          Alcotest.test_case "put blocks when full" `Quick
            test_mvar_put_blocks_when_full;
          Alcotest.test_case "pipeline" `Quick test_mvar_pipeline;
          Alcotest.test_case "try_take" `Quick test_mvar_try_take;
        ] );
      ( "semaphore",
        [
          Alcotest.test_case "counting" `Quick test_semaphore_counting;
          Alcotest.test_case "blocking" `Quick test_semaphore_blocking;
          Alcotest.test_case "bounds concurrency" `Quick
            test_semaphore_bounds_concurrency;
        ] );
      ( "rwlock",
        [
          Alcotest.test_case "readers share" `Quick test_rwlock_readers_share;
          Alcotest.test_case "writer excludes" `Quick test_rwlock_writer_excludes;
          Alcotest.test_case "writer preference" `Quick
            test_rwlock_writer_preference;
          Alcotest.test_case "helpers" `Quick test_rwlock_with_helpers;
          Alcotest.test_case "misuse detected" `Quick test_rwlock_misuse;
        ] );
      ( "barrier",
        [
          Alcotest.test_case "releases all" `Quick test_barrier_releases_all;
          Alcotest.test_case "cyclic" `Quick test_barrier_cyclic;
          Alcotest.test_case "arrival index" `Quick test_barrier_arrival_index;
        ] );
      ( "future",
        [
          Alcotest.test_case "touch" `Quick test_future_touch;
          Alcotest.test_case "of_value" `Quick test_future_of_value;
          Alcotest.test_case "poll" `Quick test_future_poll;
          Alcotest.test_case "map" `Quick test_future_map;
          Alcotest.test_case "future tree" `Quick test_future_tree;
        ] );
      ( "countdown",
        [
          Alcotest.test_case "counts down" `Quick test_countdown;
          Alcotest.test_case "already zero" `Quick test_countdown_already_zero;
        ] );
      ( "brackets",
        [
          Alcotest.test_case "rwlock bracket left by a throw" `Quick
            test_rwlock_bracket_left_by_throw;
          Alcotest.test_case "mutex bracket left by a throw" `Quick
            test_mutex_bracket_left_by_throw;
        ] );
    ]
