(* Preemptive threading (§2's alarm-driven yield) and the spin
   reader/writer lock. *)

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)

module P =
  Sim.Mp_sim.Int (struct
      let config = Sim.Sim_config.sequent ~procs:1 ()
    end)
    ()

module UT = Mpthreads.Uni_thread.Make (Queues.Fifo_queue)
module Pre = Mpthreads.Preemptive_thread.Make (P) (UT)

(* A compute-bound thread: never yields explicitly, only reaches safe
   points through Work.step's poll. *)
let finished = ref 0

let compute_bound log tag chunks =
  fun () ->
   for _ = 1 to chunks do
     P.Work.step ~instrs:100_000 ~alloc_words:0 ();
     log := tag :: !log
   done;
   incr finished

(* chronological mark transitions: 1 = ran back-to-back, >=3 = interleaved *)
let transitions log =
  let rec go n = function
    | a :: (b :: _ as rest) -> go (if a = b then n else n + 1) rest
    | _ -> n
  in
  go 0 (List.rev log)

let test_preemption_interleaves () =
  UT.reset ();
  let log = ref [] in
  P.run (fun () ->
      Pre.arm ~interval:0.01;
      finished := 0;
      UT.fork (compute_bound log `A 6);
      UT.fork (compute_bound log `B 6);
      while !finished < 2 do
        UT.yield ()
      done;
      Pre.disarm ());
  checkb "some preemptions happened" true (Pre.preemptions () > 0);
  (* with a short quantum, the two compute-bound threads must interleave
     rather than run to completion back-to-back *)
  checkb "compute-bound threads interleaved" true (transitions !log >= 3)

let test_preemption_disarmed_runs_to_completion () =
  UT.reset ();
  let log = ref [] in
  P.run (fun () ->
      Pre.disarm ();
      finished := 0;
      UT.fork (compute_bound log `A 4);
      UT.fork (compute_bound log `B 4);
      while !finished < 2 do
        UT.yield ()
      done);
  (* without the alarm each thread runs its whole loop uninterrupted: one
     single transition between the A block and the B block *)
  check "no preemption when disarmed" 1 (transitions !log)

let test_preemption_mask () =
  UT.reset ();
  P.run (fun () ->
      Pre.arm ~interval:0.001;
      Pre.mask ();
      let before = Pre.preemptions () in
      (* long compute with polling, but the alarm is masked on this proc *)
      for _ = 1 to 10 do
        P.Work.step ~instrs:200_000 ~alloc_words:0 ()
      done;
      check "no preemptions while masked" before (Pre.preemptions ());
      Pre.unmask ();
      for _ = 1 to 10 do
        P.Work.step ~instrs:200_000 ~alloc_words:0 ()
      done;
      checkb "preemptions after unmask" true (Pre.preemptions () > before);
      Pre.disarm ())

(* ---------------- spin rwlock ---------------- *)

module AP = Mp.Mp_intf.Atomic_prims
module Rw = Locks.Rw_spin_lock.Make (AP)

let test_rw_semantics () =
  let rw = Rw.create () in
  checkb "read" true (Rw.try_read_lock rw);
  checkb "second read" true (Rw.try_read_lock rw);
  check "two readers" 2 (Rw.readers rw);
  checkb "writer blocked" false (Rw.try_write_lock rw);
  Rw.read_unlock rw;
  Rw.read_unlock rw;
  checkb "writer after readers" true (Rw.try_write_lock rw);
  checkb "reader blocked by writer" false (Rw.try_read_lock rw);
  Rw.write_unlock rw;
  checkb "free again" true (Rw.try_read_lock rw);
  Rw.read_unlock rw

let test_rw_misuse () =
  let rw = Rw.create () in
  (match Rw.read_unlock rw with
  | () -> Alcotest.fail "expected rejection"
  | exception Invalid_argument _ -> ());
  match Rw.write_unlock rw with
  | () -> Alcotest.fail "expected rejection"
  | exception Invalid_argument _ -> ()

let test_rw_writer_exclusion_domains () =
  let rw = Rw.create () in
  let cell = ref 0 in
  let iterations = 300 in
  let writer () =
    for _ = 1 to iterations do
      Rw.write_lock rw;
      let v = !cell in
      if v mod 32 = 0 then Domain.cpu_relax ();
      cell := v + 1;
      Rw.write_unlock rw
    done
  in
  let reader_ok = ref true in
  let reader () =
    for _ = 1 to iterations do
      Rw.read_lock rw;
      let a = !cell in
      Domain.cpu_relax ();
      let b = !cell in
      (* no writer may change the cell while we hold a read lock *)
      if a <> b then reader_ok := false;
      Rw.read_unlock rw
    done
  in
  let dw = Domain.spawn writer in
  let dr = Domain.spawn reader in
  writer ();
  Domain.join dw;
  Domain.join dr;
  check "both writers fully counted" (2 * iterations) !cell;
  checkb "readers saw stable snapshots" true !reader_ok

let () =
  Alcotest.run "preempt"
    [
      ( "preemption",
        [
          Alcotest.test_case "interleaves compute-bound threads" `Quick
            test_preemption_interleaves;
          Alcotest.test_case "disarmed = run to completion" `Quick
            test_preemption_disarmed_runs_to_completion;
          Alcotest.test_case "masking" `Quick test_preemption_mask;
        ] );
      ( "rw_spin",
        [
          Alcotest.test_case "semantics" `Quick test_rw_semantics;
          Alcotest.test_case "misuse" `Quick test_rw_misuse;
          Alcotest.test_case "writer exclusion (domains)" `Slow
            test_rw_writer_exclusion_domains;
        ] );
    ]
