(* Tests for the mp_check exploration harness (lib/check).

   The harness's own guarantees are what is under test here: exhaustive
   bound-2 exploration keeps every scenario in the corpus green, the
   deliberately broken lock is caught and shrunk to a short readable trace,
   forced schedules and printed seeds replay deterministically, and fault
   injection steers the platform the way the knobs promise. *)

let check = Alcotest.check
let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

module P = Mpcheck.Mp_check.Int (struct
  let max_procs = 2
end) ()

module S = Mpcheck.Scenarios.Make (P)

let broken_body = List.assoc "broken_tas" S.broken

let render_failure (f : Mpcheck.Mp_check.failure) =
  Format.asprintf "%a" Mpcheck.Mp_check.pp_failure f

(* ---- exhaustive exploration over the corpus --------------------------- *)

let test_all_scenarios_bound2 () =
  List.iter
    (fun (name, body) ->
      let r = P.Explore.dfs ~bound:2 ~max_schedules:30_000 body in
      (match r.Mpcheck.Mp_check.failure with
      | None -> ()
      | Some f ->
          Alcotest.failf "scenario %s failed:@.%s" name (render_failure f));
      checkb (name ^ ": not capped") false r.Mpcheck.Mp_check.capped;
      checki (name ^ ": no truncated runs") 0 r.Mpcheck.Mp_check.truncated;
      checkb (name ^ ": explored > 1 schedule") true
        (r.Mpcheck.Mp_check.schedules > 1))
    S.all

(* ---- the self-test: a broken lock must be caught ---------------------- *)

let test_broken_tas_caught () =
  let r = P.Explore.dfs ~bound:2 ~max_schedules:30_000 broken_body in
  match r.Mpcheck.Mp_check.failure with
  | None -> Alcotest.fail "broken TAS not caught at bound 2"
  | Some f ->
      checkb "shrunk schedule is short" true
        (List.length f.Mpcheck.Mp_check.schedule <= 40);
      checkb "trace is non-empty" true (f.Mpcheck.Mp_check.trace <> []);
      (* the rendered counterexample names the racy operations *)
      let s = render_failure f in
      let mentions sub =
        let n = String.length s and m = String.length sub in
        let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
        go 0
      in
      checkb "trace shows cell ops" true (mentions "cell.")

let test_deadlock_detected () =
  let body () =
    P.run (fun () ->
        let a = P.Lock.mutex_lock () and b = P.Lock.mutex_lock () in
        let nested x y () =
          P.Lock.lock x;
          P.Work.poll ();
          P.Lock.lock y;
          P.Lock.unlock y;
          P.Lock.unlock x
        in
        S.par (nested a b) (nested b a))
  in
  let r = P.Explore.dfs ~bound:2 ~max_schedules:30_000 body in
  match r.Mpcheck.Mp_check.failure with
  | Some { error = Mp.Mp_intf.Deadlock _; _ } -> ()
  | Some f ->
      Alcotest.failf "expected Deadlock, got:@.%s" (render_failure f)
  | None -> Alcotest.fail "AB-BA deadlock not detected"

(* A scenario's own failure on a spawned proc is what the report names. *)
let test_spawned_failure_reported () =
  let body () =
    P.run (fun () -> S.par (fun () -> failwith "msg") ignore)
  in
  let r = P.Explore.dfs ~bound:2 ~max_schedules:30_000 body in
  match r.Mpcheck.Mp_check.failure with
  | Some { error = Failure m; _ } when m = "msg" -> ()
  | Some f ->
      Alcotest.failf "expected Failure \"msg\", got:@.%s" (render_failure f)
  | None -> Alcotest.fail "spawned proc's failure not reported"

(* ---- deterministic replay --------------------------------------------- *)

let test_replay_deterministic () =
  let r = P.Explore.dfs ~bound:2 ~max_schedules:30_000 broken_body in
  let f =
    match r.Mpcheck.Mp_check.failure with
    | Some f -> f
    | None -> Alcotest.fail "broken TAS not caught"
  in
  let sched = f.Mpcheck.Mp_check.schedule in
  let replay () =
    match P.Explore.replay ~schedule:sched broken_body with
    | Some f -> render_failure f
    | None -> Alcotest.fail "shrunk schedule did not replay to a failure"
  in
  let a = replay () and b = replay () in
  check Alcotest.string "two replays render identically" a b

(* ---- random mode and seed replay -------------------------------------- *)

let test_random_finds_broken_tas () =
  let r =
    P.Explore.random ~seed:Mpcheck.Sched_seed.default ~runs:3_000 broken_body
  in
  let f =
    match r.Mpcheck.Mp_check.failure with
    | Some f -> f
    | None -> Alcotest.fail "random fuzzing (3000 runs) missed the broken TAS"
  in
  let seed =
    match f.Mpcheck.Mp_check.seed with
    | Some s -> s
    | None -> Alcotest.fail "random failure carries no seed"
  in
  (* the printed seed replays to a failure in a single run *)
  let r2 =
    P.Explore.random ~seed:(Mpcheck.Sched_seed.of_string seed) ~runs:1
      broken_body
  in
  checkb "seed replays the failure" true
    (r2.Mpcheck.Mp_check.failure <> None);
  checki "replay is a single run" 1 r2.Mpcheck.Mp_check.schedules

(* ---- fault injection -------------------------------------------------- *)

let test_fault_acquire () =
  let body () =
    P.run (fun () ->
        match S.par ignore ignore with
        | () -> failwith "expected No_More_Procs from fault injection"
        | exception Mp.Mp_intf.No_More_Procs -> ())
  in
  let faults =
    { Mpcheck.Check_intf.no_faults with fail_acquire_at = Some 1 }
  in
  let r = P.Explore.dfs ~bound:1 ~max_schedules:1_000 ~faults body in
  (match r.Mpcheck.Mp_check.failure with
  | None -> ()
  | Some f ->
      Alcotest.failf "acquire fault not injected:@.%s" (render_failure f));
  (* without the fault the same body must fail (spawn succeeds) *)
  let r2 = P.Explore.dfs ~bound:1 ~max_schedules:1_000 body in
  checkb "body fails when no fault is injected" true
    (r2.Mpcheck.Mp_check.failure <> None)

let test_fault_try_lock () =
  let body () =
    P.run (fun () ->
        let l = P.Lock.mutex_lock () in
        if P.Lock.try_lock l then
          failwith "try_lock succeeded under 100% fault injection")
  in
  let faults =
    { Mpcheck.Check_intf.no_faults with try_lock_fail_pct = 100 }
  in
  let r = P.Explore.dfs ~bound:1 ~max_schedules:1_000 ~faults body in
  (match r.Mpcheck.Mp_check.failure with
  | None -> ()
  | Some f ->
      Alcotest.failf "try_lock fault not injected:@.%s" (render_failure f));
  let r2 = P.Explore.dfs ~bound:1 ~max_schedules:1_000 body in
  checkb "try_lock succeeds when no fault is injected" true
    (r2.Mpcheck.Mp_check.failure <> None)

(* ---- fault determinism under reordering -------------------------------- *)

(* Probabilistic fault decisions are keyed on (proc, object, occurrence),
   not on the global step count, so the SAME acquisitions fail whatever
   the interleaving: plain DFS, DPOR and the shrunk replay must all see
   one identical failure. *)
let test_fault_shrink_replay () =
  let faults = { Mpcheck.Check_intf.no_faults with try_lock_fail_pct = 50 } in
  let body () =
    P.run (fun () ->
        let la = P.Lock.mutex_lock () in
        let lb = P.Lock.mutex_lock () in
        let hits = ref 0 in
        let attempts l =
          for _ = 1 to 4 do
            if P.Lock.try_lock l then begin
              incr hits;
              P.Lock.unlock l
            end
          done
        in
        S.par (fun () -> attempts lb) (fun () -> attempts la);
        if !hits < 8 then
          Printf.ksprintf failwith "faults ate %d of 8 acquisitions" (8 - !hits))
  in
  let msg r =
    match r.Mpcheck.Mp_check.failure with
    | Some f -> Printexc.to_string f.Mpcheck.Mp_check.error
    | None -> Alcotest.fail "50% try_lock faults did not surface a failure"
  in
  let plain = P.Explore.dfs ~bound:2 ~max_schedules:30_000 ~faults body in
  let dpor =
    P.Explore.dfs ~bound:2 ~max_schedules:30_000 ~faults ~dpor:true body
  in
  check Alcotest.string "plain and DPOR see the same fault outcome"
    (msg plain) (msg dpor);
  let f =
    match plain.Mpcheck.Mp_check.failure with Some f -> f | None -> assert false
  in
  let replay () =
    match
      P.Explore.replay ~schedule:f.Mpcheck.Mp_check.schedule ~faults body
    with
    | Some f -> render_failure f
    | None -> Alcotest.fail "shrunk schedule did not replay under faults"
  in
  let a = replay () and b = replay () in
  check Alcotest.string "fault replay renders identically" a b;
  checkb "replay reproduces the shrunk failure" true
    (a = render_failure f)

(* ---- DPOR: race-directed exploration ----------------------------------- *)

let dfs_plain ?faults body =
  P.Explore.dfs ~bound:2 ~max_schedules:30_000 ?faults body

let dfs_dpor ?faults body =
  P.Explore.dfs ~bound:2 ~max_schedules:30_000 ?faults ~dpor:true body

(* The empirical guard for combining DPOR with a preemption bound (see
   dpor.mli): over the whole corpus, race-directed exploration finds a
   bug exactly when plain bounded DFS does. *)
let test_dpor_equivalence () =
  List.iter
    (fun (name, body) ->
      let a = dfs_plain body in
      let b = dfs_dpor body in
      checkb
        (name ^ ": DPOR finds a bug iff plain DFS does")
        (a.Mpcheck.Mp_check.failure <> None)
        (b.Mpcheck.Mp_check.failure <> None);
      checkb (name ^ ": DPOR not capped") false b.Mpcheck.Mp_check.capped)
    (S.all @ S.broken)

(* Exact schedule and prune counts at bound 3 for every corpus and heavy
   scenario, race-directed (DPOR + sleep sets) and plain CHESS DFS (the
   same figures [mp_repro check --bound 3] and [--no-dpor] print; plain
   DFS stops at the 20,000-schedule cap on threads_mutex_condition).  Any
   change to the sequence of platform operations a park or wake performs
   moves one of these numbers.  threads_pool_ws explores one schedule: both
   children are taken back and run in the parent's fiber, where no queue
   operation is a serialization point and no lock is taken;
   threads_pool_ws_wait lets a thief in first.  (name, (dpor schedules,
   dpor prunes, plain DFS schedules)) *)
let dpor_pins =
  [
    ("lock_tas", (13, 0, 15));
    ("lock_ttas", (34, 0, 40));
    ("lock_backoff", (27, 0, 33));
    ("lock_ticket", (23, 0, 44));
    ("lock_clh", (28, 0, 59));
    ("lock_anderson", (30, 0, 76));
    ("lock_mcs", (74, 0, 149));
    ("lock_hwpool", (31, 0, 35));
    ("lock_rw_spin", (27, 0, 34));
    ("lock_tas_disjoint", (7, 6, 154));
    ("lock_ticket_disjoint", (13, 12, 1_027));
    ("lock_mcs_disjoint", (19, 18, 3_268));
    ("queue_spmc", (265, 0, 664));
    ("queue_spmc_owner_ends", (672, 0, 1_759));
    ("queue_spmc_take_back", (91, 0, 259));
    ("sched_micropool_affinity", (7, 0, 598));
    ("sched_ws_steal_half", (4, 0, 4));
    ("queue_multi", (5, 4, 75));
    ("queue_bounded", (44, 0, 46));
    ("server_pipeline", (185, 0, 317));
    ("sync_ivar", (4, 0, 4));
    ("sync_mvar", (24, 0, 46));
    ("sync_semaphore", (26, 0, 35));
    ("threads_mutex_condition", (898, 251, 20_000));
    ("select_rendezvous", (13, 0, 20));
    ("cml_rendezvous", (11, 0, 12));
    ("cml_choose", (11, 0, 12));
    ("proc_pool", (2, 0, 2));
    ("numa_lock_invalidation", (6, 0, 8));
    ("numa_ws_steal", (4, 0, 4));
    ("numa_remote_sharers", (4, 0, 4));
    ("gc_minor_pp", (349, 0, 617));
    ("gc_minor_pp_major_race", (4_598, 0, 7_677));
    ("threads_pool_fifo", (431, 90, 8_595));
    ("threads_pool_lifo", (431, 90, 8_595));
    ("threads_pool_distributed", (291, 42, 19_051));
    ("threads_pool_ws", (1, 0, 1));
    ("threads_pool_micropools:2", (52, 20, 897));
    ("threads_pool_ws_wait", (10, 0, 10));
  ]

let test_dpor_schedule_pins () =
  let corpus = S.all @ S.heavy in
  checki "one pin per scenario" (List.length corpus) (List.length dpor_pins);
  List.iter
    (fun (name, body) ->
      let want_schedules, want_pruned, want_plain =
        match List.assoc_opt name dpor_pins with
        | Some w -> w
        | None -> Alcotest.failf "%s: no pinned count" name
      in
      let explore dpor =
        P.Explore.dfs ~bound:3 ~max_schedules:20_000 ~max_steps:20_000 ~dpor
          body
      in
      let r = explore true in
      checkb (name ^ ": no failure") true (r.Mpcheck.Mp_check.failure = None);
      checki (name ^ ": schedules at bound 3") want_schedules
        r.Mpcheck.Mp_check.schedules;
      checki (name ^ ": pruned at bound 3") want_pruned
        r.Mpcheck.Mp_check.pruned;
      checki (name ^ ": plain DFS schedules at bound 3") want_plain
        (explore false).Mpcheck.Mp_check.schedules)
    corpus

(* A [ws] join waits only for a child a thief took first.  In
   threads_pool_ws_wait each child polls before it counts, so some
   explored schedule steals the older child before its parent can take it
   back, and that run still counts both children. *)
let test_ws_join_waits_for_a_steal () =
  let runs = ref 0 and stealing = ref 0 in
  let on_steals n =
    incr runs;
    if n > 0 then incr stealing
  in
  let r =
    P.Explore.dfs ~bound:3 ~max_schedules:20_000 ~max_steps:20_000 ~dpor:true
      (S.ws_wait ~on_steals)
  in
  checkb "no failure" true (r.Mpcheck.Mp_check.failure = None);
  checki "every schedule ran to the end" r.Mpcheck.Mp_check.schedules !runs;
  checkb
    (Printf.sprintf "%d of %d schedules steal a child" !stealing !runs)
    true (!stealing > 0)

(* DPOR's headline reduction, read off the pinned table (which the case
   above checks against both explorers): race-directed exploration visits
   at least 10x fewer schedules than plain DFS on at least three lock
   scenarios, and sleep sets prune somewhere in the corpus. *)
let test_dpor_reduction () =
  let tenfold =
    List.filter
      (fun (name, (dpor, _, plain)) ->
        String.starts_with ~prefix:"lock_" name && plain >= 10 * dpor)
      dpor_pins
  in
  checkb
    (Printf.sprintf "10x fewer schedules on 3 lock scenarios (%s)"
       (String.concat ", " (List.map fst tenfold)))
    true
    (List.length tenfold >= 3);
  checkb "sleep sets prune" true
    (List.exists (fun (_, (_, pruned, _)) -> pruned > 0) dpor_pins)

(* A run the explorer stops early — a sleep-set prune, a failure — leaves
   procs suspended mid-run; the checker ends their fibers, so the engine's
   live-fiber count is back at its start value after the exploration. *)
let test_stopped_runs_end_fibers () =
  let explore name body =
    let live = Mp.Engine.live_fibers () in
    let r =
      P.Explore.dfs ~bound:3 ~max_schedules:20_000 ~max_steps:20_000
        ~dpor:true body
    in
    checki (name ^ ": live fibers back at start") live
      (Mp.Engine.live_fibers ());
    r
  in
  let r = explore "lock_mcs_disjoint" (List.assoc "lock_mcs_disjoint" S.all) in
  checki "lock_mcs_disjoint: pruned runs" 18 r.Mpcheck.Mp_check.pruned;
  let r = explore "broken_tas" broken_body in
  checkb "broken_tas: failing run" true (r.Mpcheck.Mp_check.failure <> None)

(* Both explorers shrink the broken TAS to the SAME canonical
   counterexample: the minimal forced schedule is a property of the bug,
   not of the order the space was walked. *)
let test_dpor_broken_counterexample () =
  let f r =
    match r.Mpcheck.Mp_check.failure with
    | Some f -> render_failure f
    | None -> Alcotest.fail "broken TAS not caught"
  in
  check Alcotest.string "identical rendered counterexample"
    (f (dfs_plain broken_body))
    (f (dfs_dpor broken_body))

(* Random two-proc programs over shared cells, a lock and an
   unprotected-critical-section probe, cross-checking the two explorers:
   whatever the program, DPOR and plain DFS agree on whether a bug
   exists.  Programs with a [Crit] on both procs (any of them outside
   the lock) are buggy; everything else is race-free by construction. *)
type rop =
  | Get of int
  | Set of int
  | Faa of int
  | Crit
  | Poll
  | Pause
  | Locked of rop list

let rec rop_to_string = function
  | Get i -> Printf.sprintf "get c%d" i
  | Set i -> Printf.sprintf "set c%d" i
  | Faa i -> Printf.sprintf "faa c%d" i
  | Crit -> "crit"
  | Poll -> "poll"
  | Pause -> "pause"
  | Locked ops ->
      "locked[" ^ String.concat "; " (List.map rop_to_string ops) ^ "]"

let prog_to_string (p0, p1) =
  Printf.sprintf "p0: %s | p1: %s"
    (String.concat "; " (List.map rop_to_string p0))
    (String.concat "; " (List.map rop_to_string p1))

let gen_prog =
  let open QCheck.Gen in
  let leaf =
    oneofl [ Get 0; Get 1; Set 0; Set 1; Faa 0; Faa 1; Crit; Poll; Pause ]
  in
  let op =
    frequency
      [
        (5, leaf);
        (2, map (fun l -> Locked l) (list_size (int_range 1 3) leaf));
      ]
  in
  pair (list_size (int_range 1 4) op) (list_size (int_range 1 4) op)

let prog_body (p0, p1) () =
  P.run (fun () ->
      let cells = [| P.Prims.make 0; P.Prims.make 0 |] in
      let l = P.Lock.mutex_lock () in
      let in_cs = ref 0 in
      let overlap = ref false in
      let rec exec = function
        | Get i -> ignore (P.Prims.get cells.(i))
        | Set i -> P.Prims.set cells.(i) 1
        | Faa i -> ignore (P.Prims.fetch_and_add cells.(i) 1)
        | Poll -> P.Work.poll ()
        | Pause -> P.Prims.pause ()
        | Crit ->
            incr in_cs;
            if !in_cs > 1 then overlap := true;
            P.Work.poll ();
            decr in_cs
        | Locked ops ->
            P.Lock.lock l;
            List.iter exec ops;
            P.Lock.unlock l
      in
      S.par (fun () -> List.iter exec p1) (fun () -> List.iter exec p0);
      if !overlap then failwith "unprotected critical sections overlapped")

let qcheck_dpor_cross_check =
  QCheck.Test.make ~count:60 ~name:"random programs: DPOR = plain DFS"
    (QCheck.make ~print:prog_to_string gen_prog)
    (fun prog ->
      let body = prog_body prog in
      let a = dfs_plain body in
      let b = dfs_dpor body in
      (a.Mpcheck.Mp_check.failure <> None)
      = (b.Mpcheck.Mp_check.failure <> None))

(* ---- a wider platform instance ---------------------------------------- *)

module P3 = Mpcheck.Mp_check.Int (struct
  let max_procs = 3
end) ()

let test_three_procs_mutex () =
  let body () =
    P3.run (fun () ->
        let l = P3.Lock.mutex_lock () in
        let in_cs = ref 0 and overlap = ref false in
        let crit () =
          P3.Lock.lock l;
          incr in_cs;
          if !in_cs > 1 then overlap := true;
          P3.Work.poll ();
          decr in_cs;
          P3.Lock.unlock l
        in
        P3.spawn crit;
        P3.spawn crit;
        crit ();
        P3.Work.idle_until ~ready:(fun () -> P3.Proc.live_procs () = 1);
        if !overlap then failwith "three procs overlapped in the critical section")
  in
  let r = P3.Explore.dfs ~bound:1 ~max_schedules:30_000 body in
  (match r.Mpcheck.Mp_check.failure with
  | None -> ()
  | Some f -> Alcotest.failf "3-proc mutex failed:@.%s" (render_failure f));
  checkb "3-proc space explored without cap" false r.Mpcheck.Mp_check.capped

let () =
  Alcotest.run "check"
    [
      ( "dfs",
        [
          Alcotest.test_case "all scenarios green at bound 2" `Slow
            test_all_scenarios_bound2;
          Alcotest.test_case "broken TAS caught and shrunk" `Quick
            test_broken_tas_caught;
          Alcotest.test_case "AB-BA deadlock detected" `Quick
            test_deadlock_detected;
          Alcotest.test_case "spawned proc's failure reported" `Quick
            test_spawned_failure_reported;
        ] );
      ( "replay",
        [
          Alcotest.test_case "forced schedule replays deterministically"
            `Quick test_replay_deterministic;
        ] );
      ( "faults",
        [
          Alcotest.test_case "fail_acquire_at injects No_More_Procs" `Quick
            test_fault_acquire;
          Alcotest.test_case "try_lock_fail_pct=100 starves try_lock" `Quick
            test_fault_try_lock;
          Alcotest.test_case "fault outcomes survive reordering and shrink"
            `Quick test_fault_shrink_replay;
        ] );
      ( "dpor",
        [
          Alcotest.test_case "corpus equivalence with plain DFS at bound 2"
            `Slow test_dpor_equivalence;
          Alcotest.test_case "blocking-construct schedule counts at bound 3"
            `Quick test_dpor_schedule_pins;
          Alcotest.test_case "broken TAS shrinks to the same counterexample"
            `Quick test_dpor_broken_counterexample;
          Alcotest.test_case "stopped runs end their fibers" `Quick
            test_stopped_runs_end_fibers;
          QCheck_alcotest.to_alcotest qcheck_dpor_cross_check;
          Alcotest.test_case "reduction at least 10x on three lock scenarios"
            `Quick test_dpor_reduction;
          Alcotest.test_case "a ws join waits for a stolen child" `Quick
            test_ws_join_waits_for_a_steal;
        ] );
      ( "procs3",
        [
          Alcotest.test_case "3-proc mutual exclusion at bound 1" `Quick
            test_three_procs_mutex;
        ] );
      ( "random",
        [
          Alcotest.test_case "fuzzing finds the broken TAS; seed replays"
            `Quick test_random_finds_broken_tas;
        ] );
    ]
