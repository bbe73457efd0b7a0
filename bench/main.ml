(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (sections E1-E9, see DESIGN.md) plus the model cross-check,
   ablation, lock-scaling, sensitivity and sim-core tables.

   Usage: dune exec bench/main.exe [-- --quick] [-- --json] [-- --sched P]
   --quick runs a reduced proc sweep (1,4,16) for faster iteration.
   --json additionally writes BENCH_sim.json: host-time cost of the
   simulator core (seconds, scheduler decisions, effect-handler
   suspensions) per workload, for tracking sim-core performance across
   changes.  The sim-core grid always sweeps an explicit scheduler axis
   (distributed, fifo, ws), landing a per-policy dimension in the JSON;
   --sched (or MP_REPRO_SCHED) selects the policy for the fig6/SGI
   sweeps and the lock-scaling grid (default distributed). *)

let fmt = Format.std_formatter

(* ------------------------------------------------------------------ *)
(* Model cross-check: closed-form resource model vs full simulation.   *)
(* ------------------------------------------------------------------ *)

let print_model samples =
  Report.Render.section fmt
    "Model: closed-form resource bound vs simulation (speedup at max procs; \
     the model ignores lock contention, stealing and barrier skew, so it is \
     an upper bound and the gap measures those effects)";
  let open Report.Experiments in
  let pmax = List.fold_left (fun acc s -> max acc s.procs) 1 samples in
  (* Structural serial/parallelism constants of each implementation: the
     banded decomposition of simple, and per-phase fork/join serialization
     for the phased algorithms (~2.5 kcycles per phase at 16 MHz). *)
  let structure = function
    | "simple" -> (9. *. 2500. /. 16.0e6, 4.)
    | "allpairs" -> (75. *. 2500. /. 16.0e6, infinity)
    | "mst" -> (199. *. 2500. /. 16.0e6, infinity)
    | "abisort" -> (40. *. 2500. /. 16.0e6, infinity)
    | _ -> (0., infinity)
  in
  let rows =
    List.filter_map
      (fun bench ->
        if bench = "seq" then None
        else begin
          let s1 =
            List.find (fun s -> s.bench = bench && s.procs = 1) samples
          in
          let sp =
            List.find (fun s -> s.bench = bench && s.procs = pmax) samples
          in
          let serial, max_par = structure bench in
          let params =
            Model.Speedup_model.fit ~elapsed1:s1.elapsed ~gc1:s1.gc
              ~bus_busy1:(s1.bus_util *. s1.elapsed)
              ~serial ~max_par ()
          in
          let predicted = Model.Speedup_model.speedup params ~procs:pmax in
          let simulated = s1.elapsed /. sp.elapsed in
          Some
            [
              bench;
              Printf.sprintf "%.2f" predicted;
              Printf.sprintf "%.2f" simulated;
            ]
        end)
      [ "allpairs"; "mst"; "abisort"; "simple"; "mm" ]
  in
  Report.Render.table fmt ~header:[ "bench"; "model"; "simulated" ] ~rows

(* ------------------------------------------------------------------ *)
(* Ablations: design decisions called out in DESIGN.md.                 *)
(* ------------------------------------------------------------------ *)

let sequent16 = Sim.Sim_config.sequent ~procs:16 ()

let print_ablations () =
  Report.Render.section fmt
    "Ablations: run-queue discipline and concurrent GC (paper §7 future work)";
  (* sequential vs concurrent collection *)
  let pgc16 = Sim.Sim_config.with_gc sequent16 (Sim.Gc_model.Par_stw 8) in
  let gc_rows =
    List.map
      (fun bench ->
        let s = Report.Experiments.run_cell sequent16 (bench, 16) in
        let p = Report.Experiments.run_cell pgc16 (bench, 16) in
        Report.Experiments.
          [
            bench;
            Printf.sprintf "%.3fs (gc %.3fs)" s.elapsed s.gc;
            Printf.sprintf "%.3fs (gc %.3fs)" p.elapsed p.gc;
            Printf.sprintf "%.2fx" (s.elapsed /. p.elapsed);
          ])
      [ "abisort"; "allpairs" ]
  in
  Format.fprintf fmt
    "collection: sequential (paper §5) vs concurrent, 8-way (§7 future \
     work), 16 procs:@.";
  Report.Render.table fmt
    ~header:[ "bench"; "sequential GC"; "concurrent GC"; "gain" ]
    ~rows:gc_rows;
  (* the scheduler family at 16 procs: central FIFO is the baseline work
     stealing must beat on the irregular workloads; central LIFO is the
     Figure 3 run queue, distributed the evaluation package's *)
  let family =
    Mpthreads.Sched_policy.
      [ Fifo; Lifo; Distributed; Ws; Micropools 4 ]
  in
  let time_sched sched bench =
    let config =
      { sequent16 with sched = Mpthreads.Sched_policy.to_string sched }
    in
    Report.Experiments.((run_cell config (bench, 16)).elapsed)
  in
  let sched_rows =
    List.map
      (fun bench ->
        let times = List.map (fun p -> time_sched p bench) family in
        let fifo_t = List.nth times 0 in
        bench
        :: List.map (fun t -> Printf.sprintf "%.3fs" t) times
        @ [
            Printf.sprintf "ws %.2fx vs fifo"
              (fifo_t /. List.nth times 3);
          ])
      [ "mm"; "allpairs"; "mst" ]
  in
  Format.fprintf fmt "@.scheduler family at 16 procs:@.";
  Report.Render.table fmt
    ~header:
      ("bench"
      :: List.map Mpthreads.Sched_policy.to_string family
      @ [ "gain" ])
    ~rows:sched_rows

(* Lock algorithms under contention in virtual time: the Anderson (1990)
   comparison the paper cites for spin-lock alternatives, run with charged
   primitives on the Sequent model. *)

(* One lock-comparison cell per algorithm: a private machine, charged
   primitives and thread package per cell, so the seven algorithm sweeps
   can fan across host domains.  Per-cell instantiation leaves the
   contended runs' virtual time unchanged (every run starts from a reset
   machine either way). *)
let lock_scaling_names =
  [ "tas"; "ttas"; "backoff"; "ticket"; "anderson"; "clh"; "mcs" ]

let lock_scaling_cell sched name =
  let module S =
    Sim.Mp_sim.Int (struct
        let config =
          Sim.Sim_config.sequent ~procs:16
            ~sched:(Mpthreads.Sched_policy.to_string sched) ()
      end)
      ()
  in
  let module CP = Locks.Charged_prims.Make (S) in
  let module SS = Mpthreads.Sched_thread.Make (S) in
  let (module L : Locks.Lock_intf.LOCK_EXT) =
    match name with
    | "tas" -> (module Locks.Tas_lock.Make (CP))
    | "ttas" -> (module Locks.Ttas_lock.Make (CP))
    | "backoff" -> (module Locks.Backoff_lock.Make (CP))
    | "ticket" -> (module Locks.Ticket_lock.Make (CP))
    | "anderson" -> (module Locks.Anderson_lock.Make (CP))
    | "clh" -> (module Locks.Clh_lock.Make (CP))
    | "mcs" -> (module Locks.Mcs_lock.Make (CP))
    | _ -> invalid_arg "lock_scaling_cell"
  in
  let contend procs =
    S.run (fun () ->
        SS.with_pool ~procs ~sched (fun () ->
            let l = L.mutex_lock () in
            SS.par_iter ~chunks:procs (procs * 20) (fun _ ->
                L.lock l;
                (* an allocating critical section, so probe bus traffic
                   interferes with the holder *)
                S.Work.step ~instrs:1_000 ~alloc_words:500 ();
                L.unlock l);
            ()));
    let st = S.stats () in
    (* (time per critical section in us, total bus traffic in KB) *)
    ( st.Mp.Stats.elapsed /. float_of_int (procs * 20) *. 1.0e6,
      st.Mp.Stats.bus_bytes / 1024 )
  in
  let t1, _ = contend 1 in
  let t16, kb16 = contend 16 in
  [
    name;
    Printf.sprintf "%.0f" t1;
    Printf.sprintf "%.0f" t16;
    string_of_int kb16;
  ]

let print_lock_scaling ~jobs ~sched () =
  Report.Render.section fmt
    (Printf.sprintf
       "Lock scaling under contention (charged primitives, simulated \
        Sequent, %s scheduler; Anderson 1990, the paper's spin-lock \
        reference)"
       (Mpthreads.Sched_policy.to_string sched));
  Report.Render.table fmt
    ~header:
      [ "algorithm"; "us/cs @1"; "us/cs @16"; "bus KB @16 (probe traffic)" ]
    ~rows:(Exec.Job_pool.map ~jobs (lock_scaling_cell sched) lock_scaling_names);
  Format.fprintf fmt
    "@.(times are dominated by the serialized critical sections; the probe \
     mechanism shows in the bus column: every TAS probe is an RMW bus \
     transaction, TTAS and the queue locks spin on cached reads)@."

(* Sensitivity of the headline results to the two tuning knobs the paper
   discusses: the allocation-region size (GC frequency, §5/§7) and the
   preemption quantum (§3.4). *)

let print_sensitivity () =
  Report.Render.section fmt
    "Sensitivity: allocation-region size and preemption quantum";
  let region_row (label, words) =
    let config = { sequent16 with Sim.Sim_config.gc_region_words = words } in
    let s1 = Report.Experiments.run_cell config ("abisort", 1) in
    let s16 = Report.Experiments.run_cell config ("abisort", 16) in
    Report.Experiments.
      [
        label;
        Printf.sprintf "%.2f" (s1.elapsed /. s16.elapsed);
        string_of_int s16.gc_count;
      ]
  in
  Format.fprintf fmt "abisort speedup at 16 procs vs allocation region:@.";
  Report.Render.table fmt
    ~header:[ "region"; "speedup@16"; "collections@16" ]
    ~rows:
      (List.map region_row
         [
           ("128K words", 128 * 1024);
           ("512K words (paper cfg)", 512 * 1024);
           ("2M words", 2 * 1024 * 1024);
         ]);
  let quantum_time q =
    let module S =
      Sim.Mp_sim.Int
        (struct
          let config = sequent16
        end)
        ()
    in
    let module T = Mpthreads.Sched_thread.Make (S) in
    ignore
      (S.run (fun () ->
           T.with_pool ~procs:16 ~quantum:q (fun () ->
               T.par_iter ~chunks:64 256 (fun _ ->
                   S.Work.step ~instrs:20_000 ()))));
    (S.stats ()).Mp.Stats.elapsed
  in
  Format.fprintf fmt "@.mixed workload time at 16 procs vs preemption quantum:@.";
  Report.Render.table fmt ~header:[ "quantum"; "elapsed" ]
    ~rows:
      (List.map
         (fun q -> [ Printf.sprintf "%.3fs" q; Printf.sprintf "%.4fs" (quantum_time q) ])
         [ 0.002; 0.02; 0.2 ])

(* ------------------------------------------------------------------ *)
(* Sim core: host-time cost of simulating, not simulated time.         *)
(* ------------------------------------------------------------------ *)

type sim_core_row = {
  sc_machine : string;
  sc_sched : string;
  sc_gc : string;
  sc_bench : string;
  sc_procs : int;
  sc_host : float;
  sc_decisions : int;
  sc_susp : int;
  sc_coalesced : int;
  sc_heap_ops : int;
  sc_makespan : int;
  sc_remote_bytes : int;
  sc_invalidations : int;
  sc_gc_minor : int;
  sc_gc_major : int;
  sc_gc_pause : int;
}

(* One sim-core cell on a private machine instance, so cells can fan
   across host domains; returns the row plus the instance's counter dump
   (the JSON keeps the dump of the grid's last cell, which is what the
   shared-instance driver effectively reported too, since machine
   counters are overwritten per run). *)
let sim_core_cell (machine, sched, gc, bench, procs) =
  let module S =
    Sim.Mp_sim.Int (struct
        let config =
          Sim.Sim_config.of_machine_string_exn ~sched
            ~gc:(Sim.Gc_model.of_string_exn gc) machine
      end)
      ()
  in
  let module B = Workloads.Bench_suite.Make (S) in
  let t0 = Sys.time () in
  ignore
    (B.run_named ~sched:(Mpthreads.Sched_policy.of_string_exn sched) bench
       ~procs);
  ( {
      sc_machine = machine;
      sc_sched = sched;
      sc_gc = gc;
      sc_bench = bench;
      sc_procs = procs;
      sc_host = Sys.time () -. t0;
      sc_decisions = S.Machine.sched_decisions ();
      sc_susp = S.Machine.suspensions ();
      sc_coalesced = S.Machine.coalesced_charges ();
      sc_heap_ops = S.Machine.heap_ops ();
      sc_makespan = S.Machine.makespan_cycles ();
      sc_remote_bytes = S.Machine.remote_bytes ();
      sc_invalidations = S.Machine.invalidations ();
      sc_gc_minor = S.Machine.gc_minor_collections ();
      sc_gc_major = S.Machine.gc_major_collections ();
      sc_gc_pause = S.Machine.gc_cycles ();
    },
    Obs.Counters.dump S.Telemetry.counters )

(* The sim-core grid's explicit scheduler axis: the historical default
   first (so the table's leading block and its golden-pinned values read
   unchanged), then the central-FIFO baseline and work stealing. *)
let sim_core_scheds = [ "distributed"; "fifo"; "ws" ]

(* The large-P NUMA block: the canonical 1024-proc hierarchical machine
   (16 nodes x 64 procs), swept at the powers of four where the
   lock/scheduler families separate — the distributed rotor's cross-node
   lock RMWs saturate the shared link while node-aware work stealing
   stays close to its node-local cost.  mm is the quick column (one
   1024-proc cell stays within the host-seconds guard, see
   test_sim.ml); fib — deep task parallelism — and the central-FIFO
   collapse exhibit join on full runs. *)
let sim_numa_machine = "numa1024"

let sim_numa_cells ~quick =
  let numa_procs = [ 1; 64; 256; 1024 ] in
  List.concat_map
    (fun sched ->
      List.concat_map
        (fun bench ->
          List.map
            (fun procs -> (sim_numa_machine, sched, "stw", bench, procs))
            numa_procs)
        (if quick then [ "mm" ] else [ "mm"; "fib" ]))
    [ "distributed"; "ws" ]
  @
  if quick then []
  else
    List.map (fun p -> (sim_numa_machine, "fifo", "stw", "fib", p)) [ 1; 64; 256 ]

(* The GC-model axis (§6 headroom counterfactuals): the allocation-heavy
   workloads under the N-collector parallel STW and the per-proc
   minor-heap collector, against the default-model cells' [stw] baseline.
   The acceptance exhibit lives here: minor_pp's 16-proc speedup strictly
   above stw's on mm (its collections stop only the allocating proc). *)
let sim_gc_cells ~quick =
  List.concat_map
    (fun gc ->
      List.concat_map
        (fun bench ->
          List.map
            (fun procs -> ("sequent", "distributed", gc, bench, procs))
            [ 1; 4; 16 ])
        [ "mm"; "simple" ])
    [ "par_stw"; "minor_pp" ]
  @
  if quick then []
  else
    (* the 64-256-proc NUMA counterfactual of the headline exhibit *)
    List.concat_map
      (fun gc ->
        List.map
          (fun procs -> (sim_numa_machine, "distributed", gc, "mm", procs))
          [ 1; 64; 256 ])
      [ "minor_pp" ]

let sim_core_rows ~jobs ~quick () =
  let cells =
    List.concat_map
      (fun sched ->
        List.concat_map
          (fun bench ->
            List.map
              (fun procs -> ("sequent", sched, "stw", bench, procs))
              [ 1; 4; 16 ])
          Workloads.Bench_suite.names)
      sim_core_scheds
    @ sim_numa_cells ~quick @ sim_gc_cells ~quick
  in
  Exec.Job_pool.map ~jobs sim_core_cell cells

let print_sim_core rows =
  Report.Render.section fmt
    "Sim core: host-time cost of the simulator (scheduler decisions, \
     effect-handler suspensions, charges coalesced by run-ahead)";
  Report.Render.table fmt
    ~header:
      [
        "machine"; "sched"; "gc"; "bench"; "procs"; "host s"; "decisions";
        "suspensions"; "coalesced"; "remote B";
      ]
    ~rows:
      (List.map
         (fun r ->
           [
             r.sc_machine;
             r.sc_sched;
             r.sc_gc;
             r.sc_bench;
             string_of_int r.sc_procs;
             Printf.sprintf "%.4f" r.sc_host;
             string_of_int r.sc_decisions;
             string_of_int r.sc_susp;
             string_of_int r.sc_coalesced;
             string_of_int r.sc_remote_bytes;
           ])
         rows);
  let tot f = List.fold_left (fun acc r -> acc + f r) 0 rows in
  Format.fprintf fmt
    "@.totals: %.3f host seconds, %d decisions, %d suspensions, %d charges \
     coalesced inline@."
    (List.fold_left (fun acc r -> acc +. r.sc_host) 0. rows)
    (tot (fun r -> r.sc_decisions))
    (tot (fun r -> r.sc_susp))
    (tot (fun r -> r.sc_coalesced))

let write_sim_json rows counters path =
  let oc = open_out path in
  Printf.fprintf oc "{\n  \"benchmark\": \"sim-core\",\n  \"machine\": %S,\n"
    sequent16.Sim.Sim_config.name;
  Printf.fprintf oc "  \"workloads\": [\n";
  let n = List.length rows in
  (* Speedup of each cell vs the same (machine, scheduler, gc model,
     workload) procs=1 makespan, so the per-policy and per-collector
     scaling curves are self-relative within each machine model. *)
  let makespan1 machine sched gc bench =
    match
      List.find_opt
        (fun r ->
          r.sc_machine = machine && r.sc_sched = sched && r.sc_gc = gc
          && r.sc_bench = bench && r.sc_procs = 1)
        rows
    with
    | Some r -> Some r.sc_makespan
    | None -> None
  in
  List.iteri
    (fun i r ->
      let speedup =
        match makespan1 r.sc_machine r.sc_sched r.sc_gc r.sc_bench with
        | Some m1 when r.sc_makespan > 0 ->
            float_of_int m1 /. float_of_int r.sc_makespan
        | _ -> nan
      in
      Printf.fprintf oc
        "    {\"name\": %S, \"machine\": %S, \"scheduler\": %S, \
         \"gc_model\": %S, \"procs\": %d, \"host_seconds\": %.6f, \
         \"sched_decisions\": %d, \"suspensions\": %d, \
         \"coalesced_charges\": %d, \"heap_ops\": %d, \"makespan_cycles\": \
         %d, \"bus.remote_bytes\": %d, \"cache.invalidations\": %d, \
         \"gc.minor_count\": %d, \"gc.major_count\": %d, \
         \"gc.pause_cycles\": %d, \"speedup\": %.4f}%s\n"
        r.sc_bench r.sc_machine r.sc_sched r.sc_gc r.sc_procs r.sc_host
        r.sc_decisions r.sc_susp r.sc_coalesced r.sc_heap_ops r.sc_makespan
        r.sc_remote_bytes r.sc_invalidations r.sc_gc_minor r.sc_gc_major
        r.sc_gc_pause speedup
        (if i = n - 1 then "" else ","))
    rows;
  Printf.fprintf oc "  ],\n";
  (* The counter registry of the sweep's last cell: machine counters from
     that run plus its client-layer counters (sched.forks, lock.spins,
     sync.blocks, ...) — the same thing the shared-instance driver
     reported, and independent of how many domains ran the sweep. *)
  Printf.fprintf oc "  \"counters\": {";
  List.iteri
    (fun i (name, v) ->
      Printf.fprintf oc "%s%S: %d" (if i = 0 then "" else ", ") name v)
    counters;
  Printf.fprintf oc "},\n";
  let tot f = List.fold_left (fun acc r -> acc + f r) 0 rows in
  Printf.fprintf oc
    "  \"totals\": {\"host_seconds\": %.6f, \"sched_decisions\": %d, \
     \"suspensions\": %d, \"coalesced_charges\": %d, \"heap_ops\": %d}\n}\n"
    (List.fold_left (fun acc r -> acc +. r.sc_host) 0. rows)
    (tot (fun r -> r.sc_decisions))
    (tot (fun r -> r.sc_susp))
    (tot (fun r -> r.sc_coalesced))
    (tot (fun r -> r.sc_heap_ops));
  close_out oc;
  Format.fprintf fmt "@.wrote %s@." path

(* [--sched P] (or MP_REPRO_SCHED) selects the scheduling policy for the
   fig6/SGI sweeps and the lock-scaling grid; the sim-core grid always
   sweeps its own explicit scheduler axis. *)
let parse_sched argv =
  let explicit = ref None in
  Array.iteri
    (fun i a ->
      if a = "--sched" && i + 1 < Array.length argv then
        explicit := Some argv.(i + 1))
    argv;
  Mpthreads.Sched_policy.resolve ?explicit:!explicit ()

let () =
  let quick = Array.exists (fun a -> a = "--quick") Sys.argv in
  let json = Array.exists (fun a -> a = "--json") Sys.argv in
  (* [--jobs N] (or MP_REPRO_JOBS) fans the independent sweep cells —
     sim-core rows, fig6/SGI grid cells, the lock-algorithm comparison —
     across N host domains; all printed/written results are identical for
     every N. *)
  let jobs = Exec.Job_pool.parse_jobs Sys.argv in
  let sched = parse_sched Sys.argv in
  let sched_str = Mpthreads.Sched_policy.to_string sched in
  let plist = if quick then Some [ 1; 4; 16 ] else None in
  Format.fprintf fmt
    "Procs and Locks reproduction -- benchmark harness (%s sweep, %d job%s, \
     %s scheduler)@."
    (if quick then "quick" else "full")
    jobs
    (if jobs = 1 then "" else "s")
    sched_str;
  let sim_cells = sim_core_rows ~jobs ~quick () in
  let sim_rows = List.map fst sim_cells in
  let last_counters =
    match List.rev sim_cells with (_, d) :: _ -> d | [] -> []
  in
  print_sim_core sim_rows;
  if json then write_sim_json sim_rows last_counters "BENCH_sim.json";
  (* E9: the open-loop server workload — latency-tail grid plus the
     saturation ramp whose knee BENCH_server.json pins per scheduler. *)
  let server_grid = Report.Server_bench.grid ~quick ~jobs () in
  let server_ramp = Report.Server_bench.ramp ~quick ~jobs () in
  Report.Server_bench.print_server fmt server_grid server_ramp;
  if json then begin
    let oc = open_out "BENCH_server.json" in
    output_string oc (Report.Server_bench.to_json ~quick server_grid server_ramp);
    close_out oc;
    Format.fprintf fmt "@.wrote BENCH_server.json@."
  end;
  Report.Experiments.print_lock_latency fmt;
  Report.Experiments.print_portability fmt;
  let samples =
    Report.Experiments.sweep ?plist ~jobs ~sched:sched_str ~machine:"sequent"
      ()
  in
  Report.Experiments.print_fig6 fmt samples;
  Report.Experiments.print_idle fmt samples;
  Report.Experiments.print_bus fmt samples;
  Report.Experiments.print_gc_ablation fmt samples;
  print_model samples;
  print_ablations ();
  print_lock_scaling ~jobs ~sched ();
  print_sensitivity ();
  let sgi =
    Report.Experiments.sweep
      ?plist:(if quick then Some [ 1; 4; 8 ] else None)
      ~jobs ~sched:sched_str ~machine:"sgi" ()
  in
  Report.Experiments.print_sgi fmt sgi;
  (* Host-side parallel-driver telemetry (to stderr: the values — batch
     and domain counts — legitimately vary with [jobs], so they stay out
     of the deterministic report stream). *)
  List.iter
    (fun (name, v) -> Printf.eprintf "%s=%d\n" name v)
    (Exec.Job_pool.counters ());
  Format.fprintf fmt "@.done.@."
