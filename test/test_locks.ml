(* Lock algorithms: semantics (try_lock/lock/unlock), mutual exclusion under
   real domain concurrency, and algorithm-specific behaviours. *)

module P = Mp.Mp_intf.Atomic_prims

(* For contended stress on a single-CPU host: a pause that yields the OS
   timeslice, so a descheduled lock holder can run.  Spinning with
   cpu_relax alone makes FIFO handoff locks take a full quantum per
   transfer. *)
module Yp : Mp.Mp_intf.PRIMS = struct
  include Mp.Mp_intf.Atomic_prims

  let pause () = Unix.sleepf 0.

  let pause_n n =
    for _ = 1 to n do
      Domain.cpu_relax ()
    done
end

module Tas = Locks.Tas_lock.Make (P)
module Ttas = Locks.Ttas_lock.Make (P)
module Backoff = Locks.Backoff_lock.Make (P)
module Ticket = Locks.Ticket_lock.Make (P)
module Clh = Locks.Clh_lock.Make (P)
module Anderson = Locks.Anderson_lock.Make (P)
module Hwpool = Locks.Hwpool_lock.Make (P)
module Mcs = Locks.Mcs_lock.Make (P)

let algorithms : (string * (module Locks.Lock_intf.LOCK_EXT)) list =
  [
    ("tas", (module Tas));
    ("ttas", (module Ttas));
    ("backoff", (module Backoff));
    ("ticket", (module Ticket));
    ("clh", (module Clh));
    ("anderson", (module Anderson));
    ("hwpool", (module Hwpool));
    ("mcs", (module Mcs));
  ]

(* same algorithms over the yielding prims, for the contended stress *)
let stress_algorithms : (string * (module Locks.Lock_intf.LOCK_EXT)) list =
  [
    ("tas", (module Locks.Tas_lock.Make (Yp)));
    ("ttas", (module Locks.Ttas_lock.Make (Yp)));
    ("backoff", (module Locks.Backoff_lock.Make (Yp)));
    ("ticket", (module Locks.Ticket_lock.Make (Yp)));
    ("clh", (module Locks.Clh_lock.Make (Yp)));
    ("anderson", (module Locks.Anderson_lock.Make (Yp)));
    ("hwpool", (module Locks.Hwpool_lock.Make (Yp)));
    ("mcs", (module Locks.Mcs_lock.Make (Yp)));
  ]

let checkb = Alcotest.(check bool)
let check = Alcotest.(check int)

(* --- generic semantics, one suite entry per algorithm --- *)

let test_try_lock_semantics (module L : Locks.Lock_intf.LOCK_EXT) () =
  let l = L.mutex_lock () in
  checkb "fresh lock acquirable" true (L.try_lock l);
  checkb "held lock refused" false (L.try_lock l);
  L.unlock l;
  checkb "acquirable after unlock" true (L.try_lock l);
  L.unlock l

let test_lock_unlock_cycle (module L : Locks.Lock_intf.LOCK_EXT) () =
  let l = L.mutex_lock () in
  for _ = 1 to 100 do
    L.lock l;
    L.unlock l
  done;
  checkb "still usable" true (L.try_lock l);
  L.unlock l

let test_independent_locks (module L : Locks.Lock_intf.LOCK_EXT) () =
  let l1 = L.mutex_lock () and l2 = L.mutex_lock () in
  L.lock l1;
  checkb "second lock unaffected" true (L.try_lock l2);
  L.unlock l2;
  L.unlock l1

let test_mutual_exclusion (module L : Locks.Lock_intf.LOCK_EXT) () =
  let l = L.mutex_lock () in
  let iterations = 2_000 in
  let counter = ref 0 in
  let worker () =
    for _ = 1 to iterations do
      L.lock l;
      (* a deliberately non-atomic read-modify-write *)
      let v = !counter in
      if v mod 64 = 0 then Domain.cpu_relax ();
      counter := v + 1;
      L.unlock l
    done
  in
  let domains = List.init 2 (fun _ -> Domain.spawn worker) in
  worker ();
  List.iter Domain.join domains;
  check "no lost updates" (3 * iterations) !counter

(* --- algorithm-specific --- *)

let test_unlock_from_other_proc () =
  (* paper: unlock "may be called by any proc (not necessarily the one that
     set the lock)" — holds for the TAS-family locks *)
  let l = Tas.mutex_lock () in
  Tas.lock l;
  let d = Domain.spawn (fun () -> Tas.unlock l) in
  Domain.join d;
  checkb "unlocked by other domain" true (Tas.try_lock l);
  Tas.unlock l;
  checkb "tas allows it" false Tas.holder_must_unlock;
  checkb "ticket documents the restriction" true Ticket.holder_must_unlock;
  checkb "clh documents the restriction" true Clh.holder_must_unlock

let test_ticket_fifo () =
  (* with a held lock, two queued waiters are served in ticket order *)
  let l = Ticket.mutex_lock () in
  Ticket.lock l;
  let order = ref [] in
  let m = Mutex.create () in
  let record x =
    Mutex.lock m;
    order := x :: !order;
    Mutex.unlock m
  in
  let d1 =
    Domain.spawn (fun () ->
        Ticket.lock l;
        record 1;
        Ticket.unlock l)
  in
  Unix.sleepf 0.05;
  let d2 =
    Domain.spawn (fun () ->
        Ticket.lock l;
        record 2;
        Ticket.unlock l)
  in
  Unix.sleepf 0.05;
  Ticket.unlock l;
  Domain.join d1;
  Domain.join d2;
  Alcotest.(check (list int)) "fifo order" [ 1; 2 ] (List.rev !order)

let test_hwpool_hashing () =
  (* software locks multiplex over a bounded pool of hardware locks *)
  let locks = List.init 200 (fun _ -> Hwpool.mutex_lock ()) in
  List.iter
    (fun l ->
      let i = Hwpool.pool_index l in
      checkb "index in pool" true (i >= 0 && i < Hwpool.pool_size))
    locks;
  (* two locks sharing a pool entry are still independent mutexes *)
  let same =
    let rec find = function
      | a :: rest -> (
          match
            List.find_opt
              (fun b -> Hwpool.pool_index b = Hwpool.pool_index a)
              rest
          with
          | Some b -> Some (a, b)
          | None -> find rest)
      | [] -> None
    in
    find locks
  in
  match same with
  | None -> Alcotest.fail "expected pool collisions with 200 locks"
  | Some (a, b) ->
      Hwpool.lock a;
      checkb "collision partner independent" true (Hwpool.try_lock b);
      Hwpool.unlock b;
      Hwpool.unlock a

let test_anderson_bounded_slots () =
  let l = Anderson.mutex_lock_sized ~slots:4 in
  (* serial reuse far beyond the slot count must keep working *)
  for _ = 1 to 40 do
    Anderson.lock l;
    Anderson.unlock l
  done;
  checkb "usable after wraparound" true (Anderson.try_lock l);
  Anderson.unlock l

(* [Atomic_prims] counts no spins; a test that wants them wraps [on_spin]. *)
let atomic_spins = Atomic.make 0

module Counting_atomic = struct
  include P

  let on_spin () = Atomic.incr atomic_spins
end

module Counting_ttas = Locks.Ttas_lock.Make (Counting_atomic)

let test_spin_counter () =
  Atomic.set atomic_spins 0;
  let l = Counting_ttas.mutex_lock () in
  Counting_ttas.lock l;
  let d =
    Domain.spawn (fun () ->
        Counting_ttas.lock l;
        Counting_ttas.unlock l)
  in
  Unix.sleepf 0.05;
  Counting_ttas.unlock l;
  Domain.join d;
  checkb "contention recorded" true (Atomic.get atomic_spins > 0)

let test_paper_lock_definition () =
  (* §3.3: lock is equivalent to: while not (try_lock sl) do () done *)
  let l = Tas.mutex_lock () in
  checkb "acquire" true (Tas.try_lock l);
  let manual_acquired = ref false in
  let d =
    Domain.spawn (fun () ->
        while not (Tas.try_lock l) do
          Domain.cpu_relax ()
        done;
        manual_acquired := true;
        Tas.unlock l)
  in
  Unix.sleepf 0.02;
  Tas.unlock l;
  Domain.join d;
  checkb "manual spin acquired" true !manual_acquired

(* charged primitives drive the same algorithm text in virtual time *)
module SimP =
  Sim.Mp_sim.Int (struct
      let config = Sim.Sim_config.sequent ~procs:4 ()
    end)
    ()

module CP = Locks.Charged_prims.Make (SimP)
module CTas = Locks.Tas_lock.Make (CP)
module CTtas = Locks.Ttas_lock.Make (CP)

let test_charged_prims_cost_time () =
  ignore
    (SimP.run (fun () ->
         let l = CTas.mutex_lock () in
         for _ = 1 to 10 do
           CTas.lock l;
           CTas.unlock l
         done));
  Alcotest.(check bool)
    "virtual time consumed" true
    ((SimP.stats ()).Mp.Stats.elapsed > 0.)

let test_charged_contention_ttas_cheaper () =
  (* Anderson's mechanism, as the model captures it: a spinning TAS issues
     a bus RMW per probe while TTAS spins on cached reads, so under the
     same contention TAS generates far more shared-bus traffic. *)
  let module S = Mpthreads.Sched_thread.Make (SimP) in
  let burn (lock : unit -> unit) (unlock : unit -> unit) =
    ignore
      (SimP.run (fun () ->
           S.with_pool ~procs:4 (fun () ->
               S.par_iter ~chunks:4 40 (fun _ ->
                   lock ();
                   SimP.Work.step ~instrs:2_000 ~alloc_words:1_000 ();
                   unlock ()))));
    (SimP.stats ()).Mp.Stats.bus_bytes
  in
  let ltas = CTas.mutex_lock () in
  let b_tas = burn (fun () -> CTas.lock ltas) (fun () -> CTas.unlock ltas) in
  let lttas = CTtas.mutex_lock () in
  let b_ttas =
    burn (fun () -> CTtas.lock lttas) (fun () -> CTtas.unlock lttas)
  in
  (* both runs move the same ~160KB of allocation; the difference is pure
     probe traffic, and TAS's RMW probes dwarf TTAS's *)
  Alcotest.(check bool)
    (Printf.sprintf "tas probe traffic (%d bytes) >> ttas (%d bytes)" b_tas
       b_ttas)
    true (b_tas - b_ttas > 30_000)

(* Every [on_spin] lands in the platform's "lock.prims_spins" counter, so
   the registry is exact after any run, however few the spins: a count
   flushed in batches of 256 would read 0 after this one.  A fresh machine
   with its own charged primitives starts the count at 0. *)
module SpinP =
  Sim.Mp_sim.Int (struct
      let config = Sim.Sim_config.sequent ~procs:4 ()
    end)
    ()

module SpinCP = Locks.Charged_prims.Make (SpinP)

let on_spin_calls = ref 0

module Counting_prims = struct
  include SpinCP

  let on_spin () =
    incr on_spin_calls;
    SpinCP.on_spin ()
end

module SpinTtas = Locks.Ttas_lock.Make (Counting_prims)

let test_charged_spin_count_exact () =
  let module S = Mpthreads.Sched_thread.Make (SpinP) in
  ignore
    (SpinP.run (fun () ->
         S.with_pool ~procs:4 (fun () ->
             let l = SpinTtas.mutex_lock () in
             S.par_iter ~chunks:4 8 (fun _ ->
                 SpinTtas.lock l;
                 SpinP.Work.step ~instrs:2_000 ~alloc_words:100 ();
                 SpinTtas.unlock l))));
  let spins = !on_spin_calls in
  checkb (Printf.sprintf "contended, fewer than 256 spins (%d)" spins) true
    (spins > 0 && spins < 256);
  Alcotest.(check int)
    "registry = on_spin calls" spins
    (Obs.Counters.get (SpinP.Telemetry.counter "lock.prims_spins"))

let test_mcs_handoff () =
  let l = Mcs.mutex_lock () in
  Mcs.lock l;
  let order = ref [] in
  let m = Mutex.create () in
  let record x =
    Mutex.lock m;
    order := x :: !order;
    Mutex.unlock m
  in
  let d1 =
    Domain.spawn (fun () ->
        Mcs.lock l;
        record 1;
        Mcs.unlock l)
  in
  Unix.sleepf 0.05;
  let d2 =
    Domain.spawn (fun () ->
        Mcs.lock l;
        record 2;
        Mcs.unlock l)
  in
  Unix.sleepf 0.05;
  Mcs.unlock l;
  Domain.join d1;
  Domain.join d2;
  Alcotest.(check (list int)) "fifo handoff" [ 1; 2 ] (List.rev !order)

let per_algorithm name m =
  [
    Alcotest.test_case (name ^ ": try_lock") `Quick (test_try_lock_semantics m);
    Alcotest.test_case (name ^ ": lock/unlock") `Quick (test_lock_unlock_cycle m);
    Alcotest.test_case (name ^ ": independent") `Quick (test_independent_locks m);
  ]

let () =
  Alcotest.run "locks"
    [
      ( "semantics",
        List.concat_map (fun (n, m) -> per_algorithm n m) algorithms );
      ( "exclusion",
        List.map
          (fun (n, m) ->
            Alcotest.test_case (n ^ ": mutual exclusion") `Slow
              (test_mutual_exclusion m))
          stress_algorithms );
      ( "specific",
        [
          Alcotest.test_case "unlock from other proc" `Quick
            test_unlock_from_other_proc;
          Alcotest.test_case "ticket fifo" `Slow test_ticket_fifo;
          Alcotest.test_case "hwpool hashing" `Quick test_hwpool_hashing;
          Alcotest.test_case "anderson bounded slots" `Quick
            test_anderson_bounded_slots;
          Alcotest.test_case "spin counter" `Quick test_spin_counter;
          Alcotest.test_case "paper lock definition" `Quick
            test_paper_lock_definition;
          Alcotest.test_case "mcs handoff" `Slow test_mcs_handoff;
        ] );
      ( "charged",
        [
          Alcotest.test_case "costs virtual time" `Quick
            test_charged_prims_cost_time;
          Alcotest.test_case "ttas beats tas under contention" `Quick
            test_charged_contention_ttas_cheaper;
          Alcotest.test_case "spin count is exact" `Quick
            test_charged_spin_count_exact;
        ] );
    ]
