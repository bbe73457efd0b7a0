(* The exhibits only the CLI prints: the model cross-check, ablation,
   lock-scaling and sensitivity sections of [mp_repro all], the sim-core
   table behind BENCH_sim.json, and the sim golden lines.  Every simulated
   Bench_suite cell goes through [Report.Experiments.run_cell]; lock
   scaling and the quantum sweep run their own programs on private
   machines. *)

open Report.Experiments

let sample_of (s, _, _) = s
let sequent16 = Sim.Sim_config.sequent ~procs:16 ()

(* ------------------------------------------------------------------ *)
(* Model cross-check: closed-form resource model vs full simulation.   *)
(* ------------------------------------------------------------------ *)

let print_model fmt samples =
  Report.Render.section fmt
    "Model: closed-form resource bound vs simulation (speedup at max procs; \
     the model ignores lock contention, stealing and barrier skew, so it is \
     an upper bound and the gap measures those effects)";
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
    List.map
      (fun bench ->
        let s1 = List.find (fun s -> s.bench = bench && s.procs = 1) samples in
        let sp = List.find (fun s -> s.bench = bench && s.procs = pmax) samples in
        let serial, max_par = structure bench in
        let params =
          Model.Speedup_model.fit ~elapsed1:s1.elapsed ~gc1:s1.gc
            ~bus_busy1:(s1.bus_util *. s1.elapsed)
            ~serial ~max_par ()
        in
        [
          bench;
          Printf.sprintf "%.2f" (Model.Speedup_model.speedup params ~procs:pmax);
          Printf.sprintf "%.2f" (s1.elapsed /. sp.elapsed);
        ])
      [ "allpairs"; "mst"; "abisort"; "simple"; "mm" ]
  in
  Report.Render.table fmt ~header:[ "bench"; "model"; "simulated" ] ~rows

(* ------------------------------------------------------------------ *)
(* Ablations: design decisions called out in DESIGN.md.                 *)
(* ------------------------------------------------------------------ *)

let print_ablations fmt =
  Report.Render.section fmt
    "Ablations: run-queue discipline and concurrent GC (paper §7 future work)";
  (* sequential vs concurrent collection *)
  let pgc16 = { sequent16 with Sim.Sim_config.gc = Sim.Gc_model.Par_stw 8 } in
  let gc_rows =
    List.map
      (fun bench ->
        let s = sample_of (run_cell sequent16 (bench, 16)) in
        let p = sample_of (run_cell pgc16 (bench, 16)) in
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
    Mpthreads.Sched_policy.[ Fifo; Lifo; Distributed; Ws; Micropools 4 ]
  in
  let time_sched sched bench =
    let config =
      { sequent16 with sched = Mpthreads.Sched_policy.to_string sched }
    in
    (sample_of (run_cell config (bench, 16))).elapsed
  in
  let sched_rows =
    List.map
      (fun bench ->
        let times = List.map (fun p -> time_sched p bench) family in
        let fifo_t = List.nth times 0 in
        bench
        :: List.map (fun t -> Printf.sprintf "%.3fs" t) times
        @ [ Printf.sprintf "ws %.2fx vs fifo" (fifo_t /. List.nth times 3) ])
      [ "mm"; "allpairs"; "mst" ]
  in
  Format.fprintf fmt "@.scheduler family at 16 procs:@.";
  Report.Render.table fmt
    ~header:
      ("bench" :: List.map Mpthreads.Sched_policy.to_string family @ [ "gain" ])
    ~rows:sched_rows

(* Lock algorithms under contention in virtual time: the Anderson (1990)
   comparison the paper cites for spin-lock alternatives, run with charged
   primitives on the Sequent model.  One cell per algorithm, on a private
   machine with its own charged primitives and thread package, so the
   seven algorithm sweeps can fan across host domains. *)
let lock_scaling_cell sched name =
  let module S =
    Sim.Mp_sim.Int
      (struct
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
  [ name; Printf.sprintf "%.0f" t1; Printf.sprintf "%.0f" t16; string_of_int kb16 ]

let print_lock_scaling fmt ~jobs ~sched =
  Report.Render.section fmt
    (Printf.sprintf
       "Lock scaling under contention (charged primitives, simulated \
        Sequent, %s scheduler; Anderson 1990, the paper's spin-lock \
        reference)"
       (Mpthreads.Sched_policy.to_string sched));
  Report.Render.table fmt
    ~header:
      [ "algorithm"; "us/cs @1"; "us/cs @16"; "bus KB @16 (probe traffic)" ]
    ~rows:
      (Exec.Job_pool.map ~jobs (lock_scaling_cell sched)
         [ "tas"; "ttas"; "backoff"; "ticket"; "anderson"; "clh"; "mcs" ]);
  Format.fprintf fmt
    "@.(times are dominated by the serialized critical sections; the probe \
     mechanism shows in the bus column: every TAS probe is an RMW bus \
     transaction, TTAS and the queue locks spin on cached reads)@."

(* Sensitivity of the headline results to the two tuning knobs the paper
   discusses: the allocation-region size (GC frequency, §5/§7) and the
   preemption quantum (§3.4). *)
let print_sensitivity fmt =
  Report.Render.section fmt
    "Sensitivity: allocation-region size and preemption quantum";
  let region_row (label, words) =
    let config = { sequent16 with Sim.Sim_config.gc_region_words = words } in
    let s1 = sample_of (run_cell config ("abisort", 1)) in
    let s16 = sample_of (run_cell config ("abisort", 16)) in
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
         (fun q ->
           [ Printf.sprintf "%.3fs" q; Printf.sprintf "%.4fs" (quantum_time q) ])
         [ 0.002; 0.02; 0.2 ])

(* ------------------------------------------------------------------ *)
(* Sim core: host-time cost of simulating, not simulated time.         *)
(* ------------------------------------------------------------------ *)

(* A sim-core row: the machine selector it ran on ([numa1024] rather than
   the config name [numa:16x64]) beside the cell's [run_cell] result. *)
type row = {
  selector : string;
  sample : sample;
  host : float;
  counters : (string * int) list;
}

(* The grid's explicit scheduler axis comes first: the historical default
   (so the table's leading block and its golden-pinned values read
   unchanged), then the central-FIFO baseline and work stealing.  The
   large-P NUMA block follows: the canonical 1024-proc hierarchical
   machine (16 nodes x 64 procs), swept at the powers of four where the
   lock/scheduler families separate — the distributed rotor's cross-node
   lock RMWs saturate the shared link while node-aware work stealing stays
   close to its node-local cost.  mm is the quick column (one 1024-proc
   cell stays within the host-seconds guard, see test_sim.ml); fib — deep
   task parallelism — and the central-FIFO collapse exhibit join on full
   runs.  Last, the GC-model axis (§6 headroom counterfactuals): the
   allocation-heavy workloads under the N-collector parallel STW and the
   per-proc minor-heap collector, against the default-model cells' [stw]
   baseline; minor_pp's 16-proc speedup strictly above stw's on mm is the
   acceptance exhibit. *)
let sim_core ~jobs ~quick =
  let row (selector, sched, gc, bench, procs) =
    let config =
      Sim.Sim_config.of_machine_string_exn ~sched
        ~gc:(Sim.Gc_model.of_string_exn gc) selector
    in
    let sample, host, counters = run_cell config (bench, procs) in
    { selector; sample; host; counters }
  in
  let grid machine scheds gcs benches plist =
    List.concat_map
      (fun sched ->
        List.concat_map
          (fun gc ->
            List.concat_map
              (fun bench ->
                List.map (fun procs -> (machine, sched, gc, bench, procs)) plist)
              benches)
          gcs)
      scheds
  in
  Exec.Job_pool.map ~jobs row
    (grid "sequent" [ "distributed"; "fifo"; "ws" ] [ "stw" ]
       Workloads.Bench_suite.names [ 1; 4; 16 ]
    @ grid "numa1024" [ "distributed"; "ws" ] [ "stw" ]
        (if quick then [ "mm" ] else [ "mm"; "fib" ])
        [ 1; 64; 256; 1024 ]
    @ (if quick then []
       else grid "numa1024" [ "fifo" ] [ "stw" ] [ "fib" ] [ 1; 64; 256 ])
    @ grid "sequent" [ "distributed" ] [ "par_stw"; "minor_pp" ]
        [ "mm"; "simple" ] [ 1; 4; 16 ]
    @
    (* the 64-256-proc NUMA counterfactual of the headline exhibit *)
    if quick then []
    else grid "numa1024" [ "distributed" ] [ "minor_pp" ] [ "mm" ] [ 1; 64; 256 ])

let print_sim_core fmt rows =
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
             r.selector;
             r.sample.sched;
             r.sample.gc_model;
             r.sample.bench;
             string_of_int r.sample.procs;
             Printf.sprintf "%.4f" r.host;
             string_of_int r.sample.decisions;
             string_of_int r.sample.suspensions;
             string_of_int r.sample.coalesced;
             string_of_int r.sample.remote_bytes;
           ])
         rows);
  let tot f = List.fold_left (fun acc r -> acc + f r.sample) 0 rows in
  Format.fprintf fmt
    "@.totals: %.3f host seconds, %d decisions, %d suspensions, %d charges \
     coalesced inline@."
    (List.fold_left (fun acc r -> acc +. r.host) 0. rows)
    (tot (fun s -> s.decisions))
    (tot (fun s -> s.suspensions))
    (tot (fun s -> s.coalesced))

(* BENCH_sim.json: one object per cell, each carrying its own counter
   registry. *)
let write_sim_json rows path =
  let oc = open_out path in
  Printf.fprintf oc "{\n  \"benchmark\": \"sim-core\",\n  \"machine\": %S,\n"
    sequent16.Sim.Sim_config.name;
  Printf.fprintf oc "  \"workloads\": [\n";
  let n = List.length rows in
  (* Speedup of each cell vs the same (machine, scheduler, gc model,
     workload) procs=1 makespan, so the per-policy and per-collector
     scaling curves are self-relative within each machine model. *)
  let makespan1 r =
    List.find_opt
      (fun b ->
        b.selector = r.selector && b.sample.sched = r.sample.sched
        && b.sample.gc_model = r.sample.gc_model && b.sample.bench = r.sample.bench
        && b.sample.procs = 1)
      rows
    |> Option.map (fun b -> b.sample.makespan_cycles)
  in
  List.iteri
    (fun i r ->
      let s = r.sample in
      let speedup =
        match makespan1 r with
        | Some m1 when s.makespan_cycles > 0 ->
            float_of_int m1 /. float_of_int s.makespan_cycles
        | _ -> nan
      in
      Printf.fprintf oc
        "    {\"name\": %S, \"machine\": %S, \"scheduler\": %S, \
         \"gc_model\": %S, \"procs\": %d, \"host_seconds\": %.6f, \
         \"sched_decisions\": %d, \"suspensions\": %d, \
         \"coalesced_charges\": %d, \"heap_ops\": %d, \"makespan_cycles\": \
         %d, \"bus.remote_bytes\": %d, \"cache.invalidations\": %d, \
         \"gc.minor_count\": %d, \"gc.major_count\": %d, \
         \"gc.pause_cycles\": %d, \"speedup\": %.4f, \"counters\": {%s}}%s\n"
        s.bench r.selector s.sched s.gc_model s.procs r.host s.decisions
        s.suspensions s.coalesced s.heap_ops s.makespan_cycles s.remote_bytes
        s.invalidations s.gc_minor s.gc_major s.gc_cycles speedup
        (String.concat ", "
           (List.map (fun (k, v) -> Printf.sprintf "%S: %d" k v) r.counters))
        (if i = n - 1 then "" else ","))
    rows;
  let tot f = List.fold_left (fun acc r -> acc + f r.sample) 0 rows in
  Printf.fprintf oc
    "  ],\n  \"totals\": {\"host_seconds\": %.6f, \"sched_decisions\": %d, \
     \"suspensions\": %d, \"coalesced_charges\": %d, \"heap_ops\": %d}\n}\n"
    (List.fold_left (fun acc r -> acc +. r.host) 0. rows)
    (tot (fun s -> s.decisions))
    (tot (fun s -> s.suspensions))
    (tot (fun s -> s.coalesced))
    (tot (fun s -> s.heap_ops));
  close_out oc

(* ------------------------------------------------------------------ *)
(* Sim goldens: the values test/test_sim.ml pins.                      *)
(* ------------------------------------------------------------------ *)

(* Every workload at 1, 4 and 16 procs on the 16-proc Sequent, then mm,
   mst and seq at 16 procs on the two-node numa:2x8 machine (adding remote
   bytes and invalidations). *)
let golden_rows ~jobs ~sched ~gc =
  let cell (selector, bench, procs) =
    let config =
      Sim.Sim_config.of_machine_string_exn
        ~sched:(Mpthreads.Sched_policy.to_string sched) ~gc selector
    in
    let sample, host, counters = run_cell config (bench, procs) in
    { selector; sample; host; counters }
  in
  Exec.Job_pool.map ~jobs cell
    (List.concat_map
       (fun b -> List.map (fun p -> ("sequent", b, p)) [ 1; 4; 16 ])
       Workloads.Bench_suite.names
    @ List.map (fun b -> ("numa:2x8", b, 16)) [ "mm"; "mst"; "seq" ])

(* One GOLDEN line.  Fields through [witness] are virtual time;
   [susp]/[decisions] are host-side counts and [host] is noise. *)
let golden_line { selector; sample = s; host; _ } =
  let head =
    Printf.sprintf "GOLDEN %-8s sched=%-12s gcm=%-9s" s.bench s.sched
      s.gc_model
  in
  let tail =
    Printf.sprintf "witness=%d susp=%d decisions=%d host=%.3fs" s.checksum
      s.suspensions s.decisions host
  in
  if selector = "sequent" then
    Printf.sprintf "%s procs=%-2d makespan=%-12d gc=%-3d bus=%-12d %s" head
      s.procs s.makespan_cycles s.gc_count s.bus_bytes tail
  else
    Printf.sprintf
      "%s machine=%s procs=%-2d makespan=%-12d bus=%-12d remote=%-10d \
       inval=%-7d %s"
      head selector s.procs s.makespan_cycles s.bus_bytes s.remote_bytes
      s.invalidations tail

(* The artefact generators refuse a wrong result: every cell whose witness
   does not match its reference is named on stderr, and the command exits
   1. *)
let refuse_unverified rows =
  let bad = List.filter (fun r -> not r.sample.verified) rows in
  List.iter
    (fun { selector; sample = s; _ } ->
      Printf.eprintf
        "unverified cell: machine=%s sched=%s gc=%s bench=%s procs=%d \
         witness=%d\n"
        selector s.sched s.gc_model s.bench s.procs s.checksum)
    bad;
  if bad <> [] then exit 1
