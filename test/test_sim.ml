(* The simulated multiprocessor: determinism, virtual-time accounting, the
   bus model, the GC model, proc management and the machine presets. *)

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checkf = Alcotest.(check (float 1e-9))

module Cfg = struct
  let config = Sim.Sim_config.sequent ~procs:4 ()
end

module P = Sim.Mp_sim.Int (Cfg) ()
module S = Mpthreads.Sched_thread.Make (P)

let cfg = Cfg.config
let cycles n = Sim.Sim_config.cycles_to_seconds cfg n

(* ---------------- configs ---------------- *)

(* E3 as `mp_repro locks` prints it: 1,000 uncontended lock/unlock pairs
   timed on one-proc Sequent and SGI machines, in virtual microseconds per
   pair.  EXPERIMENTS.md quotes these figures (paper: 46 us and 6 us). *)
let test_config_lock_pair () =
  let buf = Buffer.create 1024 in
  let fmt = Format.formatter_of_buffer buf in
  Report.Experiments.print_lock_latency fmt;
  Format.pp_print_flush fmt ();
  let rows =
    String.split_on_char '\n' (Buffer.contents buf)
    |> List.map (fun l -> List.filter (( <> ) "") (String.split_on_char ' ' l))
  in
  let measured machine =
    List.find_map
      (function m :: us :: _ when m = machine -> Some us | _ -> None)
      rows
  in
  Alcotest.(check (option string)) "sequent us/pair" (Some "46.6")
    (measured "sequent");
  Alcotest.(check (option string)) "sgi us/pair" (Some "6.5") (measured "sgi")

let test_config_conversions () =
  let c = Sim.Sim_config.seconds_to_cycles cfg 1.0 in
  check "1s at 16MHz" 16_000_000 c;
  checkf "round trip" 1.0 (Sim.Sim_config.cycles_to_seconds cfg c)

(* ---------------- determinism ---------------- *)

let workload () =
  S.with_pool ~procs:4 (fun () ->
      let acc = Atomic.make 0 in
      S.par_iter 64 (fun i ->
          P.Work.step ~instrs:1_000 ();
          ignore (Atomic.fetch_and_add acc i));
      Atomic.get acc)

let test_deterministic_makespan () =
  ignore (P.run workload);
  let m1 = P.Machine.makespan_cycles () in
  ignore (P.run workload);
  let m2 = P.Machine.makespan_cycles () in
  check "identical virtual makespan" m1 m2

let test_deterministic_stats () =
  ignore (P.run workload);
  let s1 = P.stats () in
  ignore (P.run workload);
  let s2 = P.stats () in
  checkf "elapsed" s1.Mp.Stats.elapsed s2.Mp.Stats.elapsed;
  check "alloc" (Mp.Stats.total_alloc_words s1) (Mp.Stats.total_alloc_words s2);
  check "spins" (Mp.Stats.total_lock_spins s1) (Mp.Stats.total_lock_spins s2)

(* ---------------- charging ---------------- *)

let test_charge_advances_clock () =
  ignore (P.run (fun () -> P.Work.charge 1_000));
  checkb "makespan >= charge" true (P.Machine.makespan_cycles () >= 1_000)

let test_charge_exact () =
  ignore (P.run (fun () -> P.Work.charge 12_345));
  check "exact single-proc charge" 12_345 (P.Machine.makespan_cycles ())

let test_step_charges_cpi () =
  ignore (P.run (fun () -> P.Work.step ~instrs:1_000 ~alloc_words:0 ()));
  check "instrs * cpi" (int_of_float (1_000. *. cfg.Sim.Sim_config.cpi))
    (P.Machine.makespan_cycles ())

let test_now_in_seconds () =
  let t =
    P.run (fun () ->
        P.Work.charge 16_000;
        P.Work.now ())
  in
  checkf "1ms at 16MHz" 0.001 t

(* ---------------- allocation and bus ---------------- *)

let test_alloc_accounts_words_and_bytes () =
  ignore (P.run (fun () -> P.Work.step ~instrs:0 ~alloc_words:1_000 ()));
  let st = P.stats () in
  check "words" 1_000 (Mp.Stats.total_alloc_words st);
  check "bytes over the bus" (1_000 * Sim.Sim_config.word_bytes)
    st.Mp.Stats.bus_bytes

let test_bus_busy_matches_bandwidth () =
  ignore (P.run (fun () -> P.Work.step ~instrs:0 ~alloc_words:10_000 ()));
  let bytes = 10_000 * Sim.Sim_config.word_bytes in
  let expected_cycles =
    float_of_int bytes /. cfg.Sim.Sim_config.bus_bytes_per_cycle
  in
  let busy = float_of_int (P.Machine.bus_busy_cycles ()) in
  checkb "occupancy within slicing rounding" true
    (Float.abs (busy -. expected_cycles) /. expected_cycles < 0.05)

let test_bus_contention_serializes () =
  (* two procs allocating heavily must take longer than one proc allocating
     half as much: the bus is shared *)
  let run_procs procs words =
    ignore
      (P.run (fun () ->
           S.with_pool ~procs (fun () ->
               S.par_iter ~chunks:procs procs (fun _ ->
                   P.Work.step ~instrs:0 ~alloc_words:words ()))));
    P.Machine.makespan_cycles ()
  in
  let t1 = run_procs 1 50_000 in
  let t2 = run_procs 2 50_000 in
  (* total traffic doubled but ran concurrently: the bus serializes it, so
     t2 is clearly more than t1's compute share but at least the bus total *)
  checkb "shared bus visible" true (t2 > t1)

(* ---------------- GC model ---------------- *)

let test_gc_triggers_on_region () =
  ignore
    (P.run (fun () ->
         P.Work.step ~instrs:0
           ~alloc_words:(cfg.Sim.Sim_config.gc_region_words + 1_000)
           ()));
  checkb "collection happened" true ((P.stats ()).Mp.Stats.gc_count >= 1)

let test_gc_none_under_region () =
  ignore (P.run (fun () -> P.Work.step ~instrs:0 ~alloc_words:10_000 ()));
  check "no collection" 0 (P.stats ()).Mp.Stats.gc_count

let test_gc_cost_model () =
  ignore
    (P.run (fun () ->
         P.Work.step ~instrs:0 ~alloc_words:cfg.Sim.Sim_config.gc_region_words
           ()));
  let copied =
    int_of_float
      (Sim.Sim_config.gc_survival
      *. float_of_int cfg.Sim.Sim_config.gc_region_words)
  in
  let expected =
    cfg.Sim.Sim_config.gc_fixed_cycles
    + int_of_float
        (cfg.Sim.Sim_config.gc_cycles_per_word *. float_of_int copied)
  in
  check "duration = fixed + copy" expected (P.Machine.gc_cycles ())

let test_gc_stalls_all_procs () =
  ignore
    (P.run (fun () ->
         S.with_pool ~procs:4 (fun () ->
             S.par_iter ~chunks:4 4 (fun i ->
                 if i = 0 then
                   P.Work.step ~instrs:0
                     ~alloc_words:(cfg.Sim.Sim_config.gc_region_words + 10)
                     ()
                 else P.Work.charge 2_000_000))));
  let st = P.stats () in
  (* every active proc paid a gc wait *)
  let waited = ref 0 in
  Array.iter
    (fun p -> if p.Mp.Stats.gc_wait > 0. then incr waited)
    st.Mp.Stats.per_proc;
  checkb "barrier stalls active procs" true (!waited >= 2)

let test_gc_excluded_seconds () =
  ignore
    (P.run (fun () ->
         P.Work.step ~instrs:0
           ~alloc_words:(cfg.Sim.Sim_config.gc_region_words + 10)
           ()));
  let st = P.stats () in
  let total = st.Mp.Stats.elapsed in
  let no_gc = total -. st.Mp.Stats.gc_time in
  checkb "exclusion removes gc time" true
    (no_gc < total
    && Float.abs (total -. no_gc -. cycles (P.Machine.gc_cycles ())) < 1e-9)

(* ---------------- locks in virtual time ---------------- *)

let test_lock_charges_configured_cycles () =
  ignore
    (P.run (fun () ->
         let l = P.Lock.mutex_lock () in
         P.Lock.lock l;
         P.Lock.unlock l));
  let lock_bus =
    2.
    *. (float_of_int Sim.Sim_config.lock_bus_bytes
       /. cfg.Sim.Sim_config.bus_bytes_per_cycle)
  in
  let expected =
    float_of_int
      (cfg.Sim.Sim_config.try_lock_cycles + cfg.Sim.Sim_config.unlock_cycles)
    +. lock_bus
  in
  let got = float_of_int (P.Machine.makespan_cycles ()) in
  checkb "uncontended lock pair cost" true (Float.abs (got -. expected) <= 4.)

let test_lock_contention_spins () =
  ignore
    (P.run (fun () ->
         S.with_pool ~procs:4 (fun () ->
             let l = P.Lock.mutex_lock () in
             let acc = ref 0 in
             S.par_iter ~chunks:4 40 (fun _ ->
                 P.Lock.lock l;
                 incr acc;
                 P.Work.charge 5_000;
                 P.Lock.unlock l))));
  checkb "contention produced spins" true
    (Mp.Stats.total_lock_spins (P.stats ()) > 0)

(* ---------------- procs ---------------- *)

let test_proc_acquire_limit () =
  checkb "limit enforced" true
    (P.run (fun () ->
         let spin = Atomic.make true in
         let mk () =
           Mp.Kont_util.cont_of_thunk ~on_return:P.Proc.release_proc (fun () ->
               while Atomic.get spin do
                 P.Work.charge 1_000
               done)
         in
         let acquired = ref 0 in
         (try
            for _ = 1 to 8 do
              P.Proc.acquire_proc (P.Proc.PS (mk (), 0));
              incr acquired
            done
          with Mp.Mp_intf.No_More_Procs -> ());
         Atomic.set spin false;
         !acquired = 3))

let test_proc_datum () =
  let v =
    P.run (fun () ->
        P.Proc.set_datum 9;
        P.Proc.get_datum ())
  in
  check "datum" 9 v

let test_proc_acquire_charges () =
  ignore
    (P.run (fun () ->
         Mp.Engine.callcc (fun k ->
             match P.Proc.acquire_proc (P.Proc.PS (k, 0)) with
             | () -> P.Proc.release_proc ()
             | exception Mp.Mp_intf.No_More_Procs -> ())));
  checkb "acquire has a cost" true
    (P.Machine.makespan_cycles () >= cfg.Sim.Sim_config.acquire_proc_cycles)

let test_deadlock_detection () =
  checkb "deadlock" true
    (match P.run (fun () -> P.Proc.release_proc ()) with
    | _ -> false
    | exception Mp.Mp_intf.Deadlock _ -> true)

(* A thread package of its own: the deadlocked pool's [with_pool] never
   returns, so its instance stays active. *)
module SD = Mpthreads.Sched_thread.Make (P)
module Sy = Mpsync.Sync.Make (P) (SD)

(* A thread-level deadlock: the root reads an ivar nobody fills, so every
   pool proc idles with an empty run queue, no timer and no finish to
   wait for.  The sleep rule sees that no proc is left to issue a wake
   hint and raises instead of polling forever (the pre-sleep loop hung
   here).  The run ends the sleepers' fibers; the root's own continuation
   stays parked in the ivar, out of the platform's reach. *)
let test_pool_deadlock_raises () =
  let live = Mp.Engine.live_fibers () in
  let msg =
    match
      P.run (fun () ->
          SD.with_pool ~procs:4 (fun () -> Sy.Ivar.read (Sy.Ivar.create ())))
    with
    | () -> "returned"
    | exception Mp.Mp_intf.Deadlock msg -> msg
  in
  checkb
    (Printf.sprintf "Deadlock names the sleepers: %s" msg)
    true
    (String.starts_with ~prefix:"sim:sequent: procs 0, 1, 2, 3 sleep" msg);
  check "only the ivar's waiter is left live" (live + 1)
    (Mp.Engine.live_fibers ());
  (* a sleeper with nothing that could wake it, and no pool: every fiber
     it held is ended *)
  let live = Mp.Engine.live_fibers () in
  checkb "bare idle_until deadlock" true
    (match P.run (fun () -> P.Work.idle_until ~ready:(fun () -> false)) with
    | () -> false
    | exception Mp.Mp_intf.Deadlock _ -> true);
  check "live fibers back at start" live (Mp.Engine.live_fibers ());
  check "platform reusable" 3 (P.run (fun () -> 3));
  (* a [Checked] machine keeps every sleeper in the heap, and still sees it *)
  let module D =
    Sim.Mp_sim.Int (struct
        let config = { cfg with Sim.Sim_config.mode = Checked }
      end)
      ()
  in
  checkb "debug machine deadlock" true
    (match D.run (fun () -> D.Work.idle_until ~ready:(fun () -> false)) with
    | () -> false
    | exception Mp.Mp_intf.Deadlock _ -> true)

(* A declared deadline is not a deadlock: a pool whose only pending event
   is a timer sleeps until the timer's quantum boundary, then finishes. *)
let test_pool_timer_wakes () =
  let elapsed =
    P.run (fun () ->
        S.with_pool ~procs:4 (fun () ->
            let t0 = S.now () in
            S.sleep 0.01;
            S.now () -. t0))
  in
  checkb (Printf.sprintf "slept %.6f s, at least 10 ms" elapsed) true
    (elapsed >= 0.01)

let test_idle_accounting () =
  ignore
    (P.run (fun () ->
         S.with_pool ~procs:4 (fun () ->
             (* only the root does real work; workers idle-poll *)
             P.Work.charge 1_000_000)));
  let st = P.stats () in
  checkb "workers accumulated idle time" true (Mp.Stats.idle_fraction st > 0.3)

(* ---------------- trace ---------------- *)

let test_trace_records () =
  P.Telemetry.enable_memory ();
  Fun.protect ~finally:P.Telemetry.disable (fun () ->
      ignore
        (P.run (fun () ->
             P.Work.step ~instrs:0
               ~alloc_words:(cfg.Sim.Sim_config.gc_region_words + 10)
               ()));
      let evs = P.Telemetry.events () in
      checkb "dispatches recorded" true
        (List.exists (function Obs.Event.Dispatch _ -> true | _ -> false) evs);
      checkb "gc recorded" true
        (List.exists (function Obs.Event.Gc_start _ -> true | _ -> false) evs);
      checkb "free recorded" true
        (List.exists (function Obs.Event.Freed _ -> true | _ -> false) evs);
      (* clocks are non-decreasing *)
      let clocks = List.map Obs.Event.clock_of evs in
      checkb "monotone clocks" true
        (List.for_all2 ( <= )
           (List.filteri (fun i _ -> i < List.length clocks - 1) clocks)
           (List.tl clocks)))

(* ---------------- ready heap ---------------- *)

(* The scheduler's calls only: [push], [peek_unchecked], [pop_unchecked],
   [rekey_min], [decrease], [precedes_min] and [is_empty]. *)
let drain h =
  let rec go acc =
    if Sim.Ready_heap.is_empty h then List.rev acc
    else go (Sim.Ready_heap.pop_unchecked h :: acc)
  in
  go []

let test_ready_heap_order () =
  let h = Sim.Ready_heap.create ~ids:8 in
  List.iter
    (fun (clock, id) -> Sim.Ready_heap.push h ~clock ~id)
    [ (50, 3); (10, 5); (10, 2); (99, 0); (10, 7) ];
  checkb "valid after pushes" true (Sim.Ready_heap.valid h);
  check "min id" 2 (Sim.Ready_heap.peek_unchecked h);
  checkb "min key is (10, 2)" true
    ((not (Sim.Ready_heap.precedes_min h ~clock:10 ~id:2))
    && Sim.Ready_heap.precedes_min h ~clock:10 ~id:1);
  (* earliest clock first; lowest id among equal clocks *)
  Alcotest.(check (list int)) "pop order" [ 2; 5; 7; 3; 0 ] (drain h);
  checkb "empty" true (Sim.Ready_heap.is_empty h)

let test_ready_heap_index () =
  let h = Sim.Ready_heap.create ~ids:4 in
  Sim.Ready_heap.push h ~clock:5 ~id:1;
  checkb "duplicate rejected" true
    (match Sim.Ready_heap.push h ~clock:9 ~id:1 with
    | () -> false
    | exception Sim.Ready_heap.Duplicate_id -> true);
  checkb "decrease of an absent id rejected" true
    (match Sim.Ready_heap.decrease h ~clock:1 ~id:0 with
    | () -> false
    | exception Invalid_argument _ -> true);
  checkb "decrease to a later key rejected" true
    (match Sim.Ready_heap.decrease h ~clock:6 ~id:1 with
    | () -> false
    | exception Invalid_argument _ -> true);
  Sim.Ready_heap.push h ~clock:3 ~id:2;
  Sim.Ready_heap.decrease h ~clock:3 ~id:1;
  check "decreased id overtakes on the id tie-break" 1
    (Sim.Ready_heap.peek_unchecked h);
  checkb "ops counted" true (Sim.Ready_heap.ops h = 3);
  Sim.Ready_heap.clear h;
  checkb "cleared" true (Sim.Ready_heap.is_empty h);
  Sim.Ready_heap.push h ~clock:1 ~id:1;
  Sim.Ready_heap.push h ~clock:1 ~id:3;
  Alcotest.(check (list int)) "reusable after clear" [ 1; 3 ] (drain h)

(* A key is [clock lsl ⌈log2 ids⌉ lor id]: a clock past [max_clock] would
   wrap negative and jump the queue, so [push] refuses it. *)
let test_ready_heap_clock_bound () =
  List.iter
    (fun (ids, bits) ->
      check
        (Printf.sprintf "bound at %d ids" ids)
        (max_int lsr bits)
        Sim.Ready_heap.(max_clock (create ~ids)))
    [ (1, 0); (5, 3); (16, 4); (17, 5); (1024, 10) ];
  let h = Sim.Ready_heap.create ~ids:16 in
  let bound = Sim.Ready_heap.max_clock h in
  Sim.Ready_heap.push h ~clock:bound ~id:0;
  Sim.Ready_heap.push h ~clock:(bound - 1) ~id:15;
  List.iter
    (fun clock ->
      checkb
        (Printf.sprintf "clock %d rejected" clock)
        true
        (match Sim.Ready_heap.push h ~clock ~id:7 with
        | () -> false
        | exception Invalid_argument _ -> true))
    [ bound + 1; max_int; -1 ];
  checkb "rejected pushes leave it valid" true (Sim.Ready_heap.valid h);
  List.iter
    (fun clock ->
      checkb
        (Printf.sprintf "re-key to %d rejected" clock)
        true
        (match Sim.Ready_heap.rekey_min h ~clock with
        | () -> false
        | exception Invalid_argument _ -> true);
      checkb
        (Printf.sprintf "decrease to %d rejected" clock)
        true
        (match Sim.Ready_heap.decrease h ~clock ~id:0 with
        | () -> false
        | exception Invalid_argument _ -> true))
    [ bound + 1; max_int; -1 ];
  checkb "bound key orders last" true
    (Sim.Ready_heap.peek_unchecked h = 15
    && not (Sim.Ready_heap.precedes_min h ~clock:(bound - 1) ~id:15));
  Alcotest.(check (list int)) "pop order at the bound" [ 15; 0 ] (drain h)

(* The scheduler's per-dispatch patterns on a Sequent-sized heap — pop
   the minimum and push it back, re-key it in place as a failed idle
   poll does, and bring a sleeper forward as a wake hint does: no minor
   word per push, pop, re-key or decrease. *)
let test_ready_heap_no_alloc () =
  let h = Sim.Ready_heap.create ~ids:16 in
  for id = 0 to 15 do
    Sim.Ready_heap.push h ~clock:id ~id
  done;
  let words f =
    let before = Gc.minor_words () in
    f ();
    Gc.minor_words () -. before
  in
  let probe = words ignore in
  let used =
    words (fun () ->
        for i = 1 to 10_000 do
          let id = Sim.Ready_heap.pop_unchecked h in
          Sim.Ready_heap.push h ~clock:(i + 200 + (id * 37 mod 101)) ~id;
          (* the minimum is at most the key just pushed (<= i + 300), so
             this moves it later *)
          let m = Sim.Ready_heap.peek_unchecked h in
          Sim.Ready_heap.rekey_min h ~clock:(i + 301 + (m * 13 mod 17));
          (* and the id just pushed comes forward, but no earlier than
             anything popped so far *)
          Sim.Ready_heap.decrease h ~clock:(i + 100 + (id mod 7)) ~id
        done)
  in
  check "10k pushes, pops, re-keys and decreases" 0
    (int_of_float (used -. probe));
  check "ops" 40_016 (Sim.Ready_heap.ops h);
  checkb "valid" true (Sim.Ready_heap.valid h)

let prop_ready_heap_sorts =
  QCheck.Test.make ~name:"ready heap pops in (clock, id) lexicographic order"
    ~count:100
    QCheck.(list_of_size Gen.(int_range 0 32) (int_range 0 1000))
    (fun clocks ->
      let h = Sim.Ready_heap.create ~ids:(max 1 (List.length clocks)) in
      List.iteri (fun id clock -> Sim.Ready_heap.push h ~clock ~id) clocks;
      let clock_of = Array.of_list clocks in
      let popped = List.map (fun id -> (clock_of.(id), id)) (drain h) in
      popped = List.sort compare (List.mapi (fun id c -> (c, id)) clocks))

(* Random operation sequences against a sorted (clock, id) list, over id
   universes at and around the powers of two, with clocks from tied small
   values up to (and one past) the packing bound.  [Rekey c] moves the
   minimum to the later of [c] and its own clock; [Decrease (c, id)]
   moves [id] to the earlier of [c] and its own clock. *)
type heap_op =
  | Push of int * int
  | Pop
  | Rekey of int
  | Decrease of int * int
  | Precedes of int * int
  | Peek

let heap_ops_arb =
  let open QCheck.Gen in
  let case ids =
    let bound = Sim.Ready_heap.(max_clock (create ~ids)) in
    let clock =
      oneof
        [
          int_range 0 7;
          map (fun d -> bound - d) (int_range 0 7);
          map (fun r -> r land bound) int;
        ]
    in
    let id = int_range 0 (ids - 1) in
    let op =
      frequency
        [
          (4, map2 (fun c i -> Push (c, i)) clock id);
          (1, map (fun i -> Push (bound + 1, i)) id);
          (3, return Pop);
          (3, map (fun c -> Rekey c) clock);
          (1, return (Rekey (bound + 1)));
          (3, map2 (fun c i -> Decrease (c, i)) clock id);
          (1, map (fun i -> Decrease (bound + 1, i)) id);
          (2, map2 (fun c i -> Precedes (c, i)) clock id);
          (1, return Peek);
        ]
    in
    map (fun ops -> (ids, ops)) (list_size (int_range 0 200) op)
  in
  let show = function
    | Push (c, i) -> Printf.sprintf "push %d %d" c i
    | Pop -> "pop"
    | Rekey c -> Printf.sprintf "rekey %d" c
    | Decrease (c, i) -> Printf.sprintf "decrease %d %d" c i
    | Precedes (c, i) -> Printf.sprintf "precedes %d %d" c i
    | Peek -> "peek"
  in
  QCheck.make
    ~print:(fun (ids, ops) ->
      Printf.sprintf "ids=%d [%s]" ids (String.concat "; " (List.map show ops)))
    (oneofl [ 1; 5; 16; 17; 1024 ] >>= case)

let prop_ready_heap_model =
  QCheck.Test.make ~name:"ready heap agrees with a sorted-list model"
    ~count:200 heap_ops_arb (fun (ids, ops) ->
      let h = Sim.Ready_heap.create ~ids in
      let bound = Sim.Ready_heap.max_clock h in
      let model = ref [] in
      List.for_all
        (fun op ->
          let agrees =
            match op with
            | Push (clock, id) -> (
                let in_range = clock >= 0 && clock <= bound in
                let dup = List.exists (fun (_, i) -> i = id) !model in
                match Sim.Ready_heap.push h ~clock ~id with
                | () ->
                    model := List.merge compare [ (clock, id) ] !model;
                    in_range && not dup
                | exception Invalid_argument _ -> not in_range
                | exception Sim.Ready_heap.Duplicate_id -> in_range && dup)
            | Pop -> (
                match !model with
                | [] -> Sim.Ready_heap.is_empty h
                | (_, id) :: rest ->
                    model := rest;
                    Sim.Ready_heap.pop_unchecked h = id)
            | Rekey c -> (
                match !model with
                | [] -> (
                    match Sim.Ready_heap.rekey_min h ~clock:c with
                    | () -> false
                    | exception Invalid_argument _ -> true)
                | (m, id) :: rest -> (
                    let clock = max c m in
                    Sim.Ready_heap.peek_unchecked h = id
                    &&
                    match Sim.Ready_heap.rekey_min h ~clock with
                    | () ->
                        model := List.merge compare [ (clock, id) ] rest;
                        clock <= bound
                    | exception Invalid_argument _ -> clock > bound))
            | Decrease (c, id) -> (
                match List.find_opt (fun (_, i) -> i = id) !model with
                | None -> (
                    match Sim.Ready_heap.decrease h ~clock:c ~id with
                    | () -> false
                    | exception Invalid_argument _ -> true)
                | Some (m, _) -> (
                    let clock = min c m in
                    match Sim.Ready_heap.decrease h ~clock ~id with
                    | () ->
                        model :=
                          List.merge compare [ (clock, id) ]
                            (List.filter (fun (_, i) -> i <> id) !model);
                        clock >= 0 && clock <= bound
                    | exception Invalid_argument _ -> clock < 0 || clock > bound))
            | Precedes (clock, id) ->
                Sim.Ready_heap.precedes_min h ~clock ~id
                = (match !model with [] -> true | m :: _ -> (clock, id) < m)
            | Peek -> (
                match !model with
                | [] -> Sim.Ready_heap.is_empty h
                | (_, id) :: _ -> Sim.Ready_heap.peek_unchecked h = id)
          in
          agrees
          && Sim.Ready_heap.valid h
          && Sim.Ready_heap.is_empty h = (!model = []))
        ops)

(* ---------------- determinism equivalence (goldens) ---------------- *)

(* The golden virtual-time values below were captured from the
   pre-ready-heap, always-suspend scheduler; `mp_repro sim_golden` prints
   them.  Any scheduler or run-ahead change that alters virtual time fails
   these; a legitimate model change must regenerate the table with that
   command and justify the diff. *)

module GCfg = struct
  let config = Sim.Sim_config.sequent ~procs:16 ()
end

module G = Sim.Mp_sim.Int (GCfg) ()
module GB = Workloads.Bench_suite.Make (G)

(* Same machine with the run-ahead fast path disabled: one suspension per
   charge, the seed behavior.  Used as a live equivalence oracle. *)
module NoRa =
  Sim.Mp_sim.Int (struct
      let config =
        { (Sim.Sim_config.sequent ~procs:16 ()) with mode = Reference }
    end)
    ()

module NoRaB = Workloads.Bench_suite.Make (NoRa)

(* (procs, makespan cycles, collections, bus bytes, result witness,
   suspensions, scheduler decisions).  The last two are host-side counts of
   the current scheduler (the `susp=` and `decisions=` fields): they pin
   dispatch order and episode coalescing, which virtual time alone does
   not. *)
let golden : (string * (int * int * int * int * int * int * int) list) list =
  [
    ( "allpairs",
      [
        (1, 24989411, 3, 6779796, 3110929143068210077, 159, 4);
        (4, 8254180, 3, 6795260, 3110929143068210077, 7339, 25603);
        (16, 7240736, 3, 6928468, 3110929143068210077, 13828, 53107);
      ] );
    ( "mst",
      [
        (1, 13100115, 0, 1144688, 545289, 398, 1);
        (4, 4813737, 0, 1196944, 545289, 6494, 12530);
        (16, 4121773, 0, 1398592, 545289, 18589, 57803);
      ] );
    ( "abisort",
      [
        (1, 15615536, 1, 3237376, -3144944675602481919, 161, 2);
        (4, 4766695, 1, 3238384, -3144944675602481919, 898, 7021);
        (16, 3261294, 1, 3252032, -3144944675602481919, 1655, 11075);
      ] );
    ( "simple",
      [
        (1, 6194562, 0, 1365280, 3572242472924374168, 48, 1);
        (4, 1875882, 0, 1366592, 3572242472924374168, 1163, 3664);
        (16, 1990043, 0, 1372312, 3572242472924374168, 1455, 5090);
      ] );
    ( "mm",
      [
        (1, 41473586, 1, 4083440, -2429353301021976480, 203, 2);
        (4, 12229207, 1, 4084384, -2429353301021976480, 528, 7728);
        (16, 4229267, 1, 4089544, -2429353301021976480, 850, 9663);
      ] );
    ( "seq",
      [
        (1, 4850864, 0, 286144, 1, 30, 1);
        (4, 4898818, 0, 1144520, 4, 658, 2676);
        (16, 6224842, 2, 4579288, 16, 2721, 10878);
      ] );
  ]

let golden_at bench procs =
  List.find (fun (p, _, _, _, _, _, _) -> p = procs) (List.assoc bench golden)

(* Each row is checked twice: on the shared instance [G], and through the
   cell runner the CLI's sweeps and `mp_repro sim_golden` use (a private
   machine; a [seq] cell runs its 1-proc baseline there first). *)
let golden_case bench rows () =
  List.iter
    (fun (procs, makespan, gc, bus, witness, susp, decisions) ->
      let tag s = Printf.sprintf "%s@%d %s" bench procs s in
      let w = GB.run_named bench ~procs in
      let st = G.stats () in
      check (tag "witness") witness w;
      check (tag "makespan") makespan (G.Machine.makespan_cycles ());
      check (tag "collections") gc st.Mp.Stats.gc_count;
      check (tag "bus bytes") bus st.Mp.Stats.bus_bytes;
      check (tag "suspensions") susp st.Mp.Stats.suspensions;
      check (tag "decisions") decisions st.Mp.Stats.sched_decisions;
      let s, _, _ =
        Report.Experiments.run_cell
          (Sim.Sim_config.sequent ~procs:16 ())
          (bench, procs)
      in
      let tag s = tag ("run_cell " ^ s) in
      check (tag "witness") witness s.Report.Experiments.checksum;
      check (tag "makespan") makespan s.Report.Experiments.makespan_cycles;
      check (tag "collections") gc s.Report.Experiments.gc_count;
      check (tag "bus bytes") bus s.Report.Experiments.bus_bytes;
      check (tag "suspensions") susp s.Report.Experiments.suspensions;
      check (tag "decisions") decisions s.Report.Experiments.decisions)
    rows

(* Telemetry must be pure observation: with event recording enabled the
   virtual-time results stay bit-identical to the golden table above, and
   the stream actually captures scheduler/lock activity. *)
let test_golden_telemetry_on () =
  G.Telemetry.enable_memory ~capacity:8192 ();
  Fun.protect
    ~finally:(fun () -> G.Telemetry.disable ())
    (fun () ->
      List.iter (fun (bench, rows) -> golden_case bench rows ()) golden;
      let evs = G.Telemetry.events () in
      checkb "telemetry captured events" true (List.length evs > 0);
      checkb "scheduler events present" true
        (List.exists
           (fun e -> Obs.Event.category_of e = Obs.Event.Sched)
           evs);
      checkb "lock events present" true
        (List.exists (fun e -> Obs.Event.category_of e = Obs.Event.Lock) evs));
  (* and once disabled, the goldens still hold on the same instance *)
  List.iter (fun (bench, rows) -> golden_case bench rows ()) golden

(* Cross-check the oracle: the run-ahead scheduler and the always-suspend
   scheduler agree cycle-for-cycle (the goldens then pin both to the seed). *)
let test_run_ahead_equivalence () =
  List.iter
    (fun (bench, procs) ->
      let wf = GB.run_named bench ~procs in
      let mf = G.Machine.makespan_cycles () in
      let sf = G.stats () in
      let ws = NoRaB.run_named bench ~procs in
      let sn = NoRa.stats () in
      let tag s = Printf.sprintf "%s@%d %s" bench procs s in
      check (tag "witness") ws wf;
      check (tag "makespan") (NoRa.Machine.makespan_cycles ()) mf;
      check (tag "collections") sn.Mp.Stats.gc_count sf.Mp.Stats.gc_count;
      check (tag "bus bytes") sn.Mp.Stats.bus_bytes sf.Mp.Stats.bus_bytes)
    [ ("abisort", 4); ("mst", 4); ("seq", 16) ]

module GPool = Mpthreads.Sched_thread.Make (G)
module NoRaPool = Mpthreads.Sched_thread.Make (NoRa)

(* The pool's finish is a hinted write: its sleeping procs poll again
   right after it, not when the root's later work ends.  Each proc's
   idle time and the makespan match the always-suspend oracle's. *)
let test_finish_wakes_sleepers () =
  ignore
    (G.run (fun () ->
         GPool.with_pool ~procs:16 (fun () -> G.Work.charge 100_000);
         G.Work.charge 1_000_000));
  let fast = G.stats () and mf = G.Machine.makespan_cycles () in
  ignore
    (NoRa.run (fun () ->
         NoRaPool.with_pool ~procs:16 (fun () -> NoRa.Work.charge 100_000);
         NoRa.Work.charge 1_000_000));
  let ref_ = NoRa.stats () in
  check "makespan" (NoRa.Machine.makespan_cycles ()) mf;
  Array.iteri
    (fun i (s : Mp.Stats.proc_stats) ->
      checkf (Printf.sprintf "proc %d idle" i) ref_.Mp.Stats.per_proc.(i).idle
        s.idle)
    fast.Mp.Stats.per_proc

(* The same oracle at the proc counts the quiescence-epoch coalescing does
   not see elsewhere in the suite: mid-grid (2) and the SGI-sized pool (8).
   Every workload runs on both machines at both counts. *)
let test_run_ahead_equivalence_2_8 () =
  List.iter
    (fun (bench, procs) ->
      let wf = GB.run_named bench ~procs in
      let mf = G.Machine.makespan_cycles () in
      let sf = G.stats () in
      let ws = NoRaB.run_named bench ~procs in
      let sn = NoRa.stats () in
      let tag s = Printf.sprintf "%s@%d %s" bench procs s in
      check (tag "witness") ws wf;
      check (tag "makespan") (NoRa.Machine.makespan_cycles ()) mf;
      check (tag "collections") sn.Mp.Stats.gc_count sf.Mp.Stats.gc_count;
      check (tag "bus bytes") sn.Mp.Stats.bus_bytes sf.Mp.Stats.bus_bytes)
    (List.concat_map
       (fun bench -> [ (bench, 2); (bench, 8) ])
       [ "allpairs"; "mst"; "abisort"; "simple"; "mm"; "seq" ])

(* The assertion mode ([Checked]) re-evaluates every poller readiness probe
   and cross-checks the ready heap after every scheduler operation; with it
   enabled the machine must still reproduce the golden table bit-for-bit. *)
module HDbg =
  Sim.Mp_sim.Int (struct
      let config =
        { (Sim.Sim_config.sequent ~procs:16 ()) with mode = Checked }
    end)
    ()

module HDbgB = Workloads.Bench_suite.Make (HDbg)

let test_horizon_debug_matches_golden () =
  List.iter
    (fun (bench, procs) ->
      let _, makespan, gc, bus, witness, _, _ = golden_at bench procs in
      let tag s = Printf.sprintf "%s@%d %s" bench procs s in
      let w = HDbgB.run_named bench ~procs in
      check (tag "witness") witness w;
      check (tag "makespan") makespan (HDbg.Machine.makespan_cycles ());
      check (tag "collections") gc (HDbg.stats ()).Mp.Stats.gc_count;
      check (tag "bus bytes") bus (HDbg.stats ()).Mp.Stats.bus_bytes)
    [ ("mst", 4); ("simple", 16); ("mm", 16) ]

(* ---------------- scheduler policy family ---------------- *)

(* The golden machine under an explicit policy: makespan per (bench,
   procs, policy) on the Sequent-16. *)
let policy_makespan sched bench procs =
  ignore (GB.run_named ~sched bench ~procs);
  G.Machine.makespan_cycles ()

(* Requesting the default policy explicitly is the identity: bit-identical
   to the golden table (the BENCH_sim.json default-policy cells are
   generated through exactly this call path). *)
let test_sched_default_identity () =
  List.iter
    (fun (bench, procs) ->
      let _, makespan, _, _, _, _, _ = golden_at bench procs in
      check
        (Printf.sprintf "%s@%d explicit distributed = golden" bench procs)
        makespan
        (policy_makespan Mpthreads.Sched_policy.Distributed bench procs))
    [ ("mm", 16); ("allpairs", 4); ("mst", 1) ]

(* Work stealing must scale: speedup strictly improves from 1 to 4 procs
   on the irregular workloads. *)
let test_sched_ws_monotone () =
  List.iter
    (fun bench ->
      let m1 = policy_makespan Mpthreads.Sched_policy.Ws bench 1 in
      let m4 = policy_makespan Mpthreads.Sched_policy.Ws bench 4 in
      checkb
        (Printf.sprintf "ws %s: procs 4 (%d) beats procs 1 (%d)" bench m4 m1)
        true (m4 < m1))
    [ "mm"; "allpairs"; "mst"; "fib" ]

(* The headline acceptance: work stealing >= 1.2x over the central FIFO
   baseline at 16 procs on at least two irregular workloads (measured
   margins: mst ~2.0x, fib ~9x), and never slower on the others. *)
let test_sched_ws_beats_fifo () =
  let ratio bench =
    let f = policy_makespan Mpthreads.Sched_policy.Fifo bench 16 in
    let w = policy_makespan Mpthreads.Sched_policy.Ws bench 16 in
    float_of_int f /. float_of_int w
  in
  List.iter
    (fun bench ->
      checkb
        (Printf.sprintf "ws >= 1.2x fifo on %s@16" bench)
        true
        (ratio bench >= 1.2))
    [ "mst"; "fib" ];
  List.iter
    (fun bench ->
      checkb
        (Printf.sprintf "ws not slower than fifo on %s@16" bench)
        true
        (ratio bench >= 1.0))
    [ "mm"; "allpairs" ]

(* The distributed policy counts a steal attempt per victim it locks
   because the victim's deque looked non-empty, so a lock that finds the
   deque already drained is an attempt without a steal.  Counting steals
   as attempts pinned the traced hit ratio at exactly 1. *)
let test_sched_distributed_steal_attempts () =
  let get name = Obs.Counters.get (G.Telemetry.counter name) in
  ignore (GB.run_named ~sched:Mpthreads.Sched_policy.Distributed "fib" ~procs:16);
  let steals = get "sched.steals" and attempts = get "sched.steal_attempts" in
  checkb "fib@16 steals" true (steals > 0);
  checkb
    (Printf.sprintf "fib@16 steal attempts %d > steals %d" attempts steals)
    true (attempts > steals)

(* Every policy in the family completes every workload with the right
   result witness (virtual times differ by design). *)
let test_sched_all_policies_correct () =
  let expected = List.map (fun (b, _) -> (b, GB.run_named b ~procs:4)) golden in
  List.iter
    (fun sched ->
      List.iter
        (fun (bench, want) ->
          check
            (Printf.sprintf "%s under %s" bench
               (Mpthreads.Sched_policy.to_string sched))
            want
            (GB.run_named ~sched bench ~procs:4))
        expected)
    Mpthreads.Sched_policy.[ Fifo; Lifo; Ws; Micropools 4 ]

(* ---------------- GC cost model family ---------------- *)

(* Requesting the default collector explicitly is the identity:
   bit-identical to the golden table (the `--gc stw` call path of
   `mp_repro sim_golden` and the stw cells of BENCH_sim.json are generated
   through exactly this construction). *)
module GStw =
  Sim.Mp_sim.Int (struct
      let config =
        {
          (Sim.Sim_config.sequent ~procs:16 ()) with
          gc = Sim.Gc_model.of_string_exn "stw";
        }
    end)
    ()

module GStwB = Workloads.Bench_suite.Make (GStw)

let test_gc_stw_identity () =
  Alcotest.(check string) "model name" "stw"
    (Sim.Gc_model.to_string GStw.Machine.config.Sim.Sim_config.gc);
  List.iter
    (fun (bench, procs) ->
      let _, makespan, gc, bus, witness, _, _ = golden_at bench procs in
      let tag s = Printf.sprintf "%s@%d %s" bench procs s in
      let w = GStwB.run_named bench ~procs in
      check (tag "witness") witness w;
      check (tag "makespan") makespan (GStw.Machine.makespan_cycles ());
      check (tag "collections") gc (GStw.stats ()).Mp.Stats.gc_count;
      check (tag "bus bytes") bus (GStw.stats ()).Mp.Stats.bus_bytes;
      check (tag "no proc-local minors") 0
        (GStw.Machine.gc_minor_collections ()))
    [ ("mm", 16); ("allpairs", 4); ("mst", 1) ]

(* Run-ahead-vs-always-suspend twins for the non-default collectors: the
   fast path's admission predicate must agree with the slow path on every
   model's accounting, at the proc counts the rest of the suite does not
   cover (2 and the SGI-sized 8). *)
module ParStw =
  Sim.Mp_sim.Int (struct
      let config =
        {
          (Sim.Sim_config.sequent ~procs:16 ()) with
          gc = Sim.Gc_model.Par_stw 0;
        }
    end)
    ()

module ParStwB = Workloads.Bench_suite.Make (ParStw)

module ParStwNoRa =
  Sim.Mp_sim.Int (struct
      let config =
        {
          (Sim.Sim_config.sequent ~procs:16 ()) with
          gc = Sim.Gc_model.Par_stw 0;
          mode = Reference;
        }
    end)
    ()

module ParStwNoRaB = Workloads.Bench_suite.Make (ParStwNoRa)

module MinorPp =
  Sim.Mp_sim.Int (struct
      let config =
        {
          (Sim.Sim_config.sequent ~procs:16 ()) with
          gc = Sim.Gc_model.Minor_pp;
        }
    end)
    ()

module MinorPpB = Workloads.Bench_suite.Make (MinorPp)

module MinorPpNoRa =
  Sim.Mp_sim.Int (struct
      let config =
        {
          (Sim.Sim_config.sequent ~procs:16 ()) with
          gc = Sim.Gc_model.Minor_pp;
          mode = Reference;
        }
    end)
    ()

module MinorPpNoRaB = Workloads.Bench_suite.Make (MinorPpNoRa)

let gc_twin_benches = [ "mm"; "abisort"; "seq" ]

let test_gc_par_stw_run_ahead_equivalence () =
  List.iter
    (fun (bench, procs) ->
      let wf = ParStwB.run_named bench ~procs in
      let mf = ParStw.Machine.makespan_cycles () in
      let sf = ParStw.stats () in
      let pf = ParStw.Machine.gc_cycles () in
      let ws = ParStwNoRaB.run_named bench ~procs in
      let sn = ParStwNoRa.stats () in
      let tag s = Printf.sprintf "par_stw %s@%d %s" bench procs s in
      check (tag "witness") ws wf;
      check (tag "makespan") (ParStwNoRa.Machine.makespan_cycles ()) mf;
      check (tag "collections") sn.Mp.Stats.gc_count sf.Mp.Stats.gc_count;
      check (tag "pause cycles") (ParStwNoRa.Machine.gc_cycles ()) pf;
      check (tag "bus bytes") sn.Mp.Stats.bus_bytes sf.Mp.Stats.bus_bytes)
    (List.concat_map (fun b -> [ (b, 2); (b, 8) ]) gc_twin_benches)

let test_gc_minor_pp_run_ahead_equivalence () =
  List.iter
    (fun (bench, procs) ->
      let wf = MinorPpB.run_named bench ~procs in
      let mf = MinorPp.Machine.makespan_cycles () in
      let sf = MinorPp.stats () in
      let minf = MinorPp.Machine.gc_minor_collections () in
      let pf = MinorPp.Machine.gc_cycles () in
      let ws = MinorPpNoRaB.run_named bench ~procs in
      let sn = MinorPpNoRa.stats () in
      let tag s = Printf.sprintf "minor_pp %s@%d %s" bench procs s in
      check (tag "witness") ws wf;
      check (tag "makespan") (MinorPpNoRa.Machine.makespan_cycles ()) mf;
      check (tag "collections") sn.Mp.Stats.gc_count sf.Mp.Stats.gc_count;
      check (tag "minors") (MinorPpNoRa.Machine.gc_minor_collections ()) minf;
      check (tag "pause cycles") (MinorPpNoRa.Machine.gc_cycles ()) pf;
      check (tag "bus bytes") sn.Mp.Stats.bus_bytes sf.Mp.Stats.bus_bytes)
    (List.concat_map (fun b -> [ (b, 2); (b, 8) ]) gc_twin_benches)

(* The headline exhibit at test scale: per-proc minor heaps strictly
   shorten the mm 16-proc makespan versus the sequential stop-the-world
   collector (its one big collection stalls all 16 procs). *)
let test_gc_minor_pp_headroom () =
  ignore (GStwB.run_named "mm" ~procs:16);
  let stw = GStw.Machine.makespan_cycles () in
  ignore (MinorPpB.run_named "mm" ~procs:16);
  let mpp = MinorPp.Machine.makespan_cycles () in
  checkb
    (Printf.sprintf "minor_pp mm@16 makespan %d < stw %d" mpp stw)
    true (mpp < stw);
  checkb "minor_pp ran proc-local minors" true
    (MinorPp.Machine.gc_minor_collections () > 0)

(* Drive a fresh per-proc minor-heap model instance the way the simulator
   does (an admission check, then [alloc] for every slice; a
   stop-the-world major whenever one is pending) and cross-check every
   step against an independent mirror of its accounting rules. *)
let prop_minor_pp_invariants =
  QCheck.Test.make ~name:"minor_pp: conservation, bounds, major trigger"
    ~count:100
    QCheck.(
      pair (int_range 1 8)
        (list_of_size
           Gen.(int_range 1 300)
           (pair (int_range 0 63) (int_range 1 32))))
    (fun (procs, ops) ->
      let region = 192 in
      let survival = 0.5 in
      let module M =
        (val Sim.Gc_model.instance Sim.Gc_model.Minor_pp
               {
                 Sim.Gc_model.procs;
                 region_words = region;
                 survival;
                 cycles_per_word = 2.0;
                 fixed_cycles = 100;
                 minor_fixed_cycles = 10;
                 barrier_cycles = 5;
               })
      in
      let minor_region = max 1 (region / procs) in
      let used = Array.make procs 0 in
      let promoted = ref 0 in
      let minors = ref 0 in
      let majors = ref 0 in
      let allocated = ref 0 in
      let collected = ref 0 in
      let last_pauses = ref 0 in
      let ok = ref true in
      let expect b = if not b then ok := false in
      List.iter
        (fun (r, words) ->
          let proc = r mod procs in
          allocated := !allocated + words;
          let admitted = M.admit ~proc ~words in
          let pause, got = M.alloc ~proc ~words in
          used.(proc) <- used.(proc) + words;
          if used.(proc) >= minor_region then begin
            (* the slice filled the proc's minor region: admission must
               have refused it, and an independent minor must have
               collected exactly that region *)
            expect (not admitted);
            expect (got = used.(proc));
            expect (pause > 0);
            incr minors;
            collected := !collected + got;
            promoted :=
              !promoted + int_of_float (survival *. float_of_int used.(proc));
            used.(proc) <- 0
          end
          else begin
            expect (pause = 0);
            expect (got = 0)
          end;
          (* model/mirror agreement after every op *)
          expect (M.minor_collections () = !minors);
          expect (M.region_used () = !promoted);
          expect (!M.pending = (!promoted >= region));
          (* pause accounting is monotone *)
          expect (M.pause_cycles () >= !last_pauses);
          last_pauses := M.pause_cycles ();
          (* conservation: every allocated word is either still in a minor
             region or was scanned by a minor collection *)
          expect (!allocated = !collected + Array.fold_left ( + ) 0 used);
          (* a pending major runs at the next barrier, collects exactly the
             promoted words, and clears the trigger *)
          if !M.pending then begin
            let e = M.episode ~waiters:procs in
            expect (e.Sim.Gc_model.kind = Sim.Gc_model.Major);
            expect (e.Sim.Gc_model.region_words = !promoted);
            M.finish_episode e;
            incr majors;
            promoted := 0;
            expect (M.region_used () = 0);
            expect (not !M.pending);
            expect (M.major_collections () = !majors)
          end)
        ops;
      !ok)

(* ---------------- hierarchical (NUMA) machines ---------------- *)

(* A one-node [numa] preset is arithmetically the flat bus: every sharer
   set stays local, so the golden table must hold bit-for-bit and no
   remote traffic or invalidations may appear. *)
module Numa1 =
  Sim.Mp_sim.Int (struct
      let config = Sim.Sim_config.numa ~nodes:1 ~procs_per_node:16 ()
    end)
    ()

module Numa1B = Workloads.Bench_suite.Make (Numa1)

let test_numa_one_node_is_flat () =
  let w = Numa1B.run_named "mm" ~procs:16 in
  check "witness" (-2429353301021976480) w;
  check "golden makespan" 4229267 (Numa1.Machine.makespan_cycles ());
  check "golden bus bytes" 4089544 (Numa1.stats ()).Mp.Stats.bus_bytes;
  check "no remote traffic" 0 (Numa1.Machine.remote_bytes ());
  check "no invalidations" 0 (Numa1.Machine.invalidations ())

(* A two-node machine and its always-suspend twin: the run-ahead fast
   path must agree with the slow path on the NUMA charge model too —
   including where each byte went and every invalidation. *)
module N2x8 =
  Sim.Mp_sim.Int (struct
      let config = Sim.Sim_config.numa ~nodes:2 ~procs_per_node:8 ()
    end)
    ()

module N2x8B = Workloads.Bench_suite.Make (N2x8)

module N2x8NoRa =
  Sim.Mp_sim.Int (struct
      let config =
        {
          (Sim.Sim_config.numa ~nodes:2 ~procs_per_node:8 ()) with
          mode = Reference;
        }
    end)
    ()

module N2x8NoRaB = Workloads.Bench_suite.Make (N2x8NoRa)

let test_numa_run_ahead_equivalence () =
  List.iter
    (fun (bench, procs) ->
      let wf = N2x8B.run_named bench ~procs in
      let mf = N2x8.Machine.makespan_cycles () in
      let sf = N2x8.stats () in
      let rf = N2x8.Machine.remote_bytes () in
      let inf = N2x8.Machine.invalidations () in
      let ws = N2x8NoRaB.run_named bench ~procs in
      let sn = N2x8NoRa.stats () in
      let tag s = Printf.sprintf "%s@%d %s" bench procs s in
      check (tag "witness") ws wf;
      check (tag "makespan") (N2x8NoRa.Machine.makespan_cycles ()) mf;
      check (tag "bus bytes") sn.Mp.Stats.bus_bytes sf.Mp.Stats.bus_bytes;
      check (tag "remote bytes") (N2x8NoRa.Machine.remote_bytes ()) rf;
      check (tag "invalidations") (N2x8NoRa.Machine.invalidations ()) inf)
    [ ("mm", 16); ("mst", 16); ("seq", 16) ]

(* Absolute values for the two-node machine, from the numa:2x8 rows of
   `mp_repro sim_golden`.  The twin test above only shows that the two
   schedulers agree; this table pins the link arithmetic itself.
   (bench, makespan cycles, bus bytes, remote bytes, invalidations,
   result witness), all at 16 procs. *)
let numa_golden =
  [
    ("mm", 4195301, 4088960, 2152, 269, -2429353301021976480);
    ("mst", 4359248, 1393400, 113824, 14228, 545289);
    ("seq", 6212274, 4579224, 784, 98, 16);
  ]

let test_numa_golden () =
  List.iter
    (fun (bench, makespan, bus, remote, invals, witness) ->
      let tag s = Printf.sprintf "numa:2x8 %s@16 %s" bench s in
      let w = N2x8B.run_named bench ~procs:16 in
      check (tag "witness") witness w;
      check (tag "makespan") makespan (N2x8.Machine.makespan_cycles ());
      check (tag "bus bytes") bus (N2x8.stats ()).Mp.Stats.bus_bytes;
      check (tag "remote bytes") remote (N2x8.Machine.remote_bytes ());
      check (tag "invalidations") invals (N2x8.Machine.invalidations ()))
    numa_golden

(* Contiguous node grouping: a pool that fits node 0 never crosses the
   link; spanning both nodes moves contended lock and queue words across
   it, each crossing invalidating the other node's copies. *)
let test_numa_locality () =
  ignore (N2x8B.run_named "mm" ~procs:8);
  check "one-node pool: no remote traffic" 0 (N2x8.Machine.remote_bytes ());
  check "one-node pool: no invalidations" 0 (N2x8.Machine.invalidations ());
  ignore (N2x8B.run_named "mm" ~procs:16);
  checkb "two-node pool moves remote bytes" true
    (N2x8.Machine.remote_bytes () > 0);
  checkb "two-node pool invalidates" true (N2x8.Machine.invalidations () > 0)

(* The canonical large machine of the committed sweeps. *)
module N1024 =
  Sim.Mp_sim.Int (struct
      let config = Sim.Sim_config.of_machine_string_exn "numa1024"
    end)
    ()

module N1024B = Workloads.Bench_suite.Make (N1024)

(* Large-P regression guard for the run-ahead machinery: episode
   coalescing must stay effective when the ready heap holds hundreds of
   procs.  Budgets are ~3-4x the measured values (mm 3.1k/3.7k, fib
   110k/101k suspensions) so model tweaks fit but an accidental return
   to suspend-per-charge (~1 suspension per decision) fails loudly.  The
   ws rows guard the idle sweep: an idle proc peeks at a queue before it
   pays a charged read of it, and enters a sweep only while fewer procs
   are sweeping than there are non-empty queues (mm 4.4k/8.4k; 32k/101k
   while every woken proc swept, 2.4M/37.7M when every probe of every
   sweep was a charged read). *)
let test_numa_large_p_suspension_budget () =
  List.iter
    (fun (sched, bench, procs, budget) ->
      ignore (N1024B.run_named ~sched bench ~procs);
      let tag =
        Printf.sprintf "%s %s@%d"
          (Mpthreads.Sched_policy.to_string sched)
          bench procs
      in
      let susp = (N1024.stats ()).Mp.Stats.suspensions in
      checkb
        (Printf.sprintf "%s suspensions %d under %d" tag susp budget)
        true (susp < budget);
      checkb
        (Printf.sprintf "%s coalescing active" tag)
        true
        (N1024.Machine.coalesced_charges () > 0))
    Mpthreads.Sched_policy.
      [
        (Distributed, "mm", 64, 20_000);
        (Distributed, "mm", 256, 30_000);
        (Distributed, "fib", 64, 400_000);
        (Distributed, "fib", 256, 400_000);
        (Ws, "mm", 256, 10_000);
        (Ws, "mm", 1024, 20_000);
      ]

(* Host-seconds guard on a 1024-proc ws cell: it must stay affordable
   (measured 0.1 s on a 2-vCPU Xeon VM since idle procs stopped
   stampeding a loaded queue, 0.8-1.1 s before; the budget leaves room
   for slow CI hosts without letting it grow unbounded). *)
let test_numa_1024_host_budget () =
  let t0 = Sys.time () in
  ignore
    (N1024B.run_named
       ~sched:(Mpthreads.Sched_policy.of_string_exn "ws")
       "mm" ~procs:1024);
  let host = Sys.time () -. t0 in
  checkb
    (Printf.sprintf "ws mm@1024 host seconds %.1f under 60" host)
    true (host < 60.)

(* ---------------- idle polls ---------------- *)

module GS = Mpthreads.Sched_thread.Make (G)

(* A failed idle poll charges the poller one quantum and puts it to
   sleep, and a wake and a catch-up book the skipped polls: no allocation
   on any of these paths.  Fifteen pool procs idle while the root charges
   100 x 100k cycles; [sim.idle_polls] still counts every quantum of the
   reference machine's polling, and the words left over are the pool's
   setup and the root's own charges, well under one word per poll. *)
let test_idle_poll_no_alloc () =
  let before = Gc.minor_words () in
  ignore
    (G.run (fun () ->
         GS.with_pool ~procs:16 (fun () ->
             for _ = 1 to 100 do
               G.Work.charge 100_000
             done)));
  let words = Gc.minor_words () -. before in
  let polls = Obs.Counters.get (G.Telemetry.counter "sim.idle_polls") in
  check "idle polls" 75_525 polls;
  let per_poll = words /. float_of_int polls in
  checkb
    (Printf.sprintf "%.3f minor words per idle poll, under 0.5" per_poll)
    true (per_poll < 0.5);
  (* The 15 pollers sleep from their first failed poll until the pool's
     finish wakes them: a few loop decisions each (153 in all), not one
     per quantum as when every poll ran (over 75,525). *)
  let decisions = (G.stats ()).Mp.Stats.sched_decisions in
  checkb
    (Printf.sprintf "%d loop decisions, under 1,000" decisions)
    true (decisions < 1_000)

(* ---------------- sim-core host cost budget ---------------- *)

(* Smoke check that the run-ahead fast path stays effective: on a fixed
   single-proc workload it must (a) stay under an absolute suspension
   budget and (b) beat the always-suspend scheduler by >= 2x.  The seed
   scheduler spent ~8800 suspensions here. *)
let test_suspension_budget () =
  ignore (GB.run_named "mm" ~procs:1);
  let st = G.stats () in
  let fast = st.Mp.Stats.suspensions in
  let decisions = st.Mp.Stats.sched_decisions in
  ignore (NoRaB.run_named "mm" ~procs:1);
  let slow = (NoRa.stats ()).Mp.Stats.suspensions in
  checkb
    (Printf.sprintf "fast path under budget (%d suspensions)" fast)
    true (fast < 1_000);
  checkb
    (Printf.sprintf "fast >= 2x fewer suspensions (%d vs %d)" fast slow)
    true (2 * fast <= slow);
  checkb "decisions collapsed too" true (decisions < 1_000);
  checkb "coalesced charges recorded" true (G.Machine.coalesced_charges () > 0);
  checkb "heap ops counted" true (st.Mp.Stats.heap_ops >= 2 * decisions)

let qt = Testkit.to_alcotest

let prop_charge_sum =
  QCheck.Test.make ~name:"single proc: makespan = sum of charges" ~count:50
    QCheck.(list (int_range 1 10_000))
    (fun charges ->
      ignore (P.run (fun () -> List.iter P.Work.charge charges));
      P.Machine.makespan_cycles () = List.fold_left ( + ) 0 charges)

let prop_alloc_conservation =
  QCheck.Test.make ~name:"alloc words are conserved in stats" ~count:50
    QCheck.(list (int_range 1 2_000))
    (fun allocs ->
      ignore
        (P.run (fun () ->
             List.iter (fun w -> P.Work.step ~instrs:0 ~alloc_words:w ()) allocs));
      Mp.Stats.total_alloc_words (P.stats ()) = List.fold_left ( + ) 0 allocs)

let prop_parallel_deterministic =
  QCheck.Test.make ~name:"random parallel workloads are deterministic"
    ~count:20
    QCheck.(pair (int_range 1 4) (list (int_range 100 5_000)))
    (fun (procs, works) ->
      let run () =
        ignore
          (P.run (fun () ->
               S.with_pool ~procs (fun () ->
                   S.fork_join
                     (List.map (fun w () -> P.Work.step ~instrs:w ()) works))));
        P.Machine.makespan_cycles ()
      in
      let a = run () in
      let b = run () in
      a = b)

let prop_more_procs_never_slower_for_independent_work =
  QCheck.Test.make
    ~name:
      "independent equal tasks: 4 procs beat 1 proc once work dwarfs pool \
       setup"
    ~count:20
    (QCheck.int_range 8 32)
    (fun tasks ->
      let time procs =
        ignore
          (P.run (fun () ->
               S.with_pool ~procs (fun () ->
                   S.par_iter ~chunks:tasks tasks (fun _ ->
                       P.Work.step ~instrs:50_000 ~alloc_words:0 ()))));
        P.Machine.makespan_cycles ()
      in
      time 4 < time 1)

let () =
  Alcotest.run "sim"
    [
      ( "config",
        [
          Alcotest.test_case "lock pair us" `Quick test_config_lock_pair;
          Alcotest.test_case "conversions" `Quick test_config_conversions;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "makespan" `Quick test_deterministic_makespan;
          Alcotest.test_case "stats" `Quick test_deterministic_stats;
        ] );
      ( "charging",
        [
          Alcotest.test_case "advances clock" `Quick test_charge_advances_clock;
          Alcotest.test_case "exact" `Quick test_charge_exact;
          Alcotest.test_case "step cpi" `Quick test_step_charges_cpi;
          Alcotest.test_case "now in seconds" `Quick test_now_in_seconds;
        ] );
      ( "bus",
        [
          Alcotest.test_case "alloc accounting" `Quick
            test_alloc_accounts_words_and_bytes;
          Alcotest.test_case "bandwidth occupancy" `Quick
            test_bus_busy_matches_bandwidth;
          Alcotest.test_case "contention serializes" `Quick
            test_bus_contention_serializes;
        ] );
      ( "gc",
        [
          Alcotest.test_case "triggers on region" `Quick
            test_gc_triggers_on_region;
          Alcotest.test_case "none under region" `Quick test_gc_none_under_region;
          Alcotest.test_case "cost model" `Quick test_gc_cost_model;
          Alcotest.test_case "stalls all procs" `Quick test_gc_stalls_all_procs;
          Alcotest.test_case "gc-excluded time" `Quick test_gc_excluded_seconds;
        ] );
      ( "locks",
        [
          Alcotest.test_case "configured cycles" `Quick
            test_lock_charges_configured_cycles;
          Alcotest.test_case "contention spins" `Quick test_lock_contention_spins;
        ] );
      ( "procs",
        [
          Alcotest.test_case "acquire limit" `Quick test_proc_acquire_limit;
          Alcotest.test_case "datum" `Quick test_proc_datum;
          Alcotest.test_case "acquire charges" `Quick test_proc_acquire_charges;
          Alcotest.test_case "deadlock detection" `Quick test_deadlock_detection;
          Alcotest.test_case "idle accounting" `Quick test_idle_accounting;
          Alcotest.test_case "a deadlocked pool raises" `Quick
            test_pool_deadlock_raises;
          Alcotest.test_case "a pending timer is not a deadlock" `Quick
            test_pool_timer_wakes;
          Alcotest.test_case "an idle poll allocates nothing" `Quick
            test_idle_poll_no_alloc;
        ] );
      ( "trace",
        [
          Alcotest.test_case "records events" `Quick test_trace_records;
        ] );
      ( "ready heap",
        [
          Alcotest.test_case "pop order" `Quick test_ready_heap_order;
          Alcotest.test_case "index ops" `Quick test_ready_heap_index;
          qt prop_ready_heap_sorts;
          Alcotest.test_case "clock bound" `Quick test_ready_heap_clock_bound;
          Alcotest.test_case "no allocation" `Quick test_ready_heap_no_alloc;
          qt prop_ready_heap_model;
        ] );
      ( "goldens",
        List.map
          (fun (bench, rows) ->
            Alcotest.test_case bench `Quick (golden_case bench rows))
          golden );
      ( "telemetry",
        [
          Alcotest.test_case "goldens bit-identical with telemetry on" `Quick
            test_golden_telemetry_on;
        ] );
      ( "run-ahead",
        [
          Alcotest.test_case "equivalent to always-suspend" `Quick
            test_run_ahead_equivalence;
          Alcotest.test_case "equivalent at procs 2 and 8" `Quick
            test_run_ahead_equivalence_2_8;
          Alcotest.test_case "a pool's finish wakes its sleepers" `Quick
            test_finish_wakes_sleepers;
          Alcotest.test_case "horizon assertion mode matches goldens" `Quick
            test_horizon_debug_matches_golden;
          Alcotest.test_case "suspension budget" `Quick test_suspension_budget;
        ] );
      ( "numa",
        [
          Alcotest.test_case "one node = flat golden" `Quick
            test_numa_one_node_is_flat;
          Alcotest.test_case "run-ahead equivalent on two nodes" `Quick
            test_numa_run_ahead_equivalence;
          Alcotest.test_case "two-node golden" `Quick test_numa_golden;
          Alcotest.test_case "node locality of traffic" `Quick
            test_numa_locality;
          Alcotest.test_case "large-P suspension budget" `Slow
            test_numa_large_p_suspension_budget;
          Alcotest.test_case "1024-proc host budget" `Slow
            test_numa_1024_host_budget;
        ] );
      ( "sched-policies",
        [
          Alcotest.test_case "explicit default = golden" `Quick
            test_sched_default_identity;
          Alcotest.test_case "ws speedup monotone 1->4" `Slow
            test_sched_ws_monotone;
          Alcotest.test_case "ws beats central fifo at 16" `Slow
            test_sched_ws_beats_fifo;
          Alcotest.test_case "all policies correct" `Slow
            test_sched_all_policies_correct;
          Alcotest.test_case "distributed counts failed steal attempts"
            `Quick test_sched_distributed_steal_attempts;
        ] );
      ( "gc-models",
        [
          Alcotest.test_case "explicit stw = golden" `Quick
            test_gc_stw_identity;
          Alcotest.test_case "par_stw run-ahead equivalent at 2 and 8" `Quick
            test_gc_par_stw_run_ahead_equivalence;
          Alcotest.test_case "minor_pp run-ahead equivalent at 2 and 8" `Quick
            test_gc_minor_pp_run_ahead_equivalence;
          Alcotest.test_case "minor_pp lifts mm@16" `Quick
            test_gc_minor_pp_headroom;
          qt prop_minor_pp_invariants;
        ] );
      ( "properties",
        [
          qt prop_charge_sum;
          qt prop_alloc_conservation;
          qt prop_parallel_deterministic;
          qt prop_more_procs_never_slower_for_independent_work;
        ] );
    ]
