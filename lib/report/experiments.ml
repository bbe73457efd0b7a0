type sample = {
  machine : string;
  sched : string;
  gc_model : string;
  bench : string;
  procs : int;
  elapsed : float;
  seq_base : float;
  gc : float;
  gc_count : int;
  gc_minor : int;
  gc_major : int;
  idle : float;
  bus_mb : float;
  bus_util : float;
  spins : int;
  alloc_words : int;
  checksum : int;
  verified : bool;
  makespan_cycles : int;
  bus_bytes : int;
  remote_bytes : int;
  invalidations : int;
  gc_cycles : int;
  decisions : int;
  suspensions : int;
  coalesced : int;
  heap_ops : int;
}

let default_procs = [ 1; 2; 4; 6; 8; 10; 12; 14; 16 ]
let benches = [ "allpairs"; "mst"; "abisort"; "simple"; "mm"; "seq" ]

(* Sequential references for result verification. *)
let expected_checksum bench =
  match bench with
  | "allpairs" ->
      let g = Workloads.Graph.random ~n:75 ~seed:42 () in
      Workloads.Graph.checksum (Workloads.Graph.floyd_warshall g)
  | "mm" ->
      let a = Workloads.Matrix.random ~n:100 ~seed:42 in
      let b = Workloads.Matrix.random ~n:100 ~seed:43 in
      Workloads.Matrix.checksum (Workloads.Matrix.multiply a b)
  | "mst" ->
      Workloads.Euclid.prim_mst (Workloads.Euclid.random_points ~n:200 ~seed:42)
  | "abisort" ->
      let rng = Random.State.make [| 42; 4096 |] in
      let a = Array.init 4096 (fun _ -> Random.State.int rng 1_000_000) in
      Array.sort compare a;
      Array.fold_left (fun acc x -> (acc * 31) + x) 7 a
  | "simple" ->
      let t = Workloads.Hydro.create ~n:100 ~seed:42 in
      ignore (Workloads.Hydro.step_seq t);
      Workloads.Hydro.checksum t
  | "fib" ->
      (* the n that [Bench_suite.run_named] runs *)
      let rec fib k = if k < 2 then k else fib (k - 1) + fib (k - 2) in
      fib 24
  | _ -> 0 (* seq: verified by copies count below *)

(* The JSONL sink of the enclosing [trace], if any. *)
let trace_sink : Obs.Sink.t option ref = ref None

let trace path f =
  let oc = open_out path in
  trace_sink := Some (Obs.Sink.jsonl oc);
  Fun.protect
    ~finally:(fun () ->
      trace_sink := None;
      close_out oc)
    f

(* One (bench, procs) grid cell on a private, generative [Mp_sim] machine
   (and its whole client stack), so cells share no simulator state and can
   run on separate host domains.  Cells hold no shared RNG (workload seeds
   are fixed per cell) and each cell's telemetry lands in its own
   machine's registry. *)
let run_cell (config : Sim.Sim_config.t) (bench, procs) =
  let module P =
    Sim.Mp_sim.Int
      (struct
        let config = config
      end)
      ()
  in
  let module B = Workloads.Bench_suite.Make (P) in
  Option.iter P.Telemetry.attach_sink !trace_sink;
  (* The config carries the scheduling policy as a string, so grid cells
     stay serializable. *)
  let sched =
    Mpthreads.Sched_policy.of_string_exn config.Sim.Sim_config.sched
  in
  (* [seq]'s self-relative baseline: the same copies on one proc, run
     first on this machine; the registry then restarts for the measured
     run. *)
  let seq_base =
    if bench = "seq" && procs > 1 then begin
      ignore (B.seq ~procs:1 ~copies:procs ~sched ());
      Obs.Counters.reset P.Telemetry.counters;
      Some (P.stats ()).Mp.Stats.elapsed
    end
    else None
  in
  let t0 = Sys.time () in
  let checksum = B.run_named ~sched bench ~procs in
  let host_seconds = Sys.time () -. t0 in
  let st = P.stats () in
  let expected = if bench = "seq" then procs else expected_checksum bench in
  ( {
      machine = config.Sim.Sim_config.name;
      sched = config.Sim.Sim_config.sched;
      gc_model = Sim.Gc_model.to_string config.Sim.Sim_config.gc;
      bench;
      procs;
      elapsed = st.Mp.Stats.elapsed;
      seq_base = Option.value seq_base ~default:st.Mp.Stats.elapsed;
      gc = st.Mp.Stats.gc_time;
      gc_count = st.Mp.Stats.gc_count;
      gc_minor = P.Machine.gc_minor_collections ();
      gc_major = P.Machine.gc_major_collections ();
      idle = Mp.Stats.idle_fraction st;
      bus_mb = Mp.Stats.bus_mb_per_sec st;
      bus_util = Mp.Stats.bus_utilization st;
      spins = Mp.Stats.total_lock_spins st;
      alloc_words = Mp.Stats.total_alloc_words st;
      checksum;
      verified = checksum = expected;
      makespan_cycles = P.Machine.makespan_cycles ();
      bus_bytes = st.Mp.Stats.bus_bytes;
      remote_bytes = P.Machine.remote_bytes ();
      invalidations = P.Machine.invalidations ();
      gc_cycles = P.Machine.gc_cycles ();
      decisions = st.Mp.Stats.sched_decisions;
      suspensions = st.Mp.Stats.suspensions;
      coalesced = P.Machine.coalesced_charges ();
      heap_ops = st.Mp.Stats.heap_ops;
    },
    host_seconds,
    Obs.Counters.dump P.Telemetry.counters )

(* The default proc list grows with the machine: a 64-node NUMA box is
   swept at the powers of four up to its size rather than the flat 1..16
   grid. *)
let machine_procs (config : Sim.Sim_config.t) =
  if config.Sim.Sim_config.procs <= 16 then default_procs
  else
    [ 1; 4; 16; 64; 256; 1024 ]
    |> List.filter (fun p -> p <= config.Sim.Sim_config.procs)

(* [Exec.Job_pool.map] merges the cells back by index, so the sample list
   — and everything rendered from it — is identical for every [jobs]. *)
let sweep ?plist ?(jobs = 1) ?(sched = "distributed") ?(gc = "stw") ~machine
    () =
  let config =
    Sim.Sim_config.of_machine_string_exn ~sched
      ~gc:(Sim.Gc_model.of_string_exn gc)
      machine
  in
  let plist =
    Option.value plist ~default:(machine_procs config)
    |> List.filter (fun p -> p >= 1 && p <= config.Sim.Sim_config.procs)
  in
  (* every speedup divides by the 1-proc cell *)
  let plist = if List.mem 1 plist then plist else 1 :: plist in
  (* a traced sweep runs its cells in order so their events stream to the
     sink one cell at a time *)
  let jobs = if Option.is_some !trace_sink then 1 else jobs in
  Exec.Job_pool.map ~jobs
    (fun cell ->
      let sample, _, _ = run_cell config cell in
      sample)
    (List.concat_map (fun b -> List.map (fun p -> (b, p)) plist) benches)

(* The §6 headroom replay (E8): the same machine and schedule swept once per
   GC cost model, so the fig6 curves can be laid side by side.  [stw] is the
   paper's sequential stop-the-world collector; [par_stw] splits the copy
   across the barrier waiters; [minor_pp] gives each proc a private minor
   heap and only stops the world for majors over promoted words. *)
let gc_models = [ "stw"; "par_stw"; "minor_pp" ]

let gc_sweep ?plist ?jobs ?(sched = "distributed") ?(machine = "sequent") () =
  List.map
    (fun gc -> (gc, sweep ?plist ?jobs ~sched ~gc ~machine ()))
    gc_models

let find samples ~bench ~procs =
  List.find (fun s -> s.bench = bench && s.procs = procs) samples

let speedup samples ~bench ~procs =
  let s = find samples ~bench ~procs in
  if bench = "seq" then s.seq_base /. s.elapsed
  else
    let base = find samples ~bench ~procs:1 in
    base.elapsed /. s.elapsed

let speedup_no_gc samples ~bench ~procs =
  let s = find samples ~bench ~procs in
  if bench = "seq" then speedup samples ~bench ~procs
  else
    let base = find samples ~bench ~procs:1 in
    (base.elapsed -. base.gc) /. (s.elapsed -. s.gc)

let procs_of samples =
  List.sort_uniq compare (List.map (fun s -> s.procs) samples)

let fig6_rows samples =
  let ps = procs_of samples in
  List.map
    (fun bench ->
      (bench, List.map (fun p -> speedup samples ~bench ~procs:p) ps))
    benches

(* Section headers name the machine the samples ran on; the historical
   phrasing is kept for the default Sequent so existing golden diffs of
   driver output stay byte-identical. *)
let machine_label samples =
  match samples with
  | { machine = "sequent"; _ } :: _ | [] -> "simulated Sequent Symmetry"
  | { machine; _ } :: _ -> "simulated machine " ^ machine

let print_fig6 fmt samples =
  Render.section fmt
    (Printf.sprintf "E1 / Figure 6: self-relative speedup (%s)"
       (machine_label samples));
  let ps = procs_of samples in
  Render.series fmt ~xlabel:"speedup@procs" ~xs:ps ~rows:(fig6_rows samples);
  Format.fprintf fmt "@.";
  Render.chart fmt ~xs:ps ~rows:(fig6_rows samples);
  let ok = List.for_all (fun s -> s.verified) samples in
  Format.fprintf fmt
    "@.results vs sequential references: %s@."
    (if ok then "all verified" else "MISMATCH DETECTED")

let print_idle fmt samples =
  Render.section fmt
    "E4: processor idle fractions (paper: simple above 50% for >=10 procs)";
  let ps = procs_of samples in
  Render.series fmt ~xlabel:"idle%@procs" ~xs:ps
    ~rows:
      (List.map
         (fun bench ->
           ( bench,
             List.map
               (fun p -> 100. *. (find samples ~bench ~procs:p).idle)
               ps ))
         benches)

let print_bus fmt samples =
  Render.section fmt
    "E5: memory-bus traffic, MB/s (paper: mm ~20 MB/s of a 25 MB/s bus at 16 \
     procs)";
  let ps = procs_of samples in
  Render.series fmt ~xlabel:"MB/s@procs" ~xs:ps
    ~rows:
      (List.map
         (fun bench ->
           (bench, List.map (fun p -> (find samples ~bench ~procs:p).bus_mb) ps))
         benches);
  Format.fprintf fmt "@.lock spins at 16 procs (contention):@.";
  Render.table fmt ~header:[ "bench"; "spins"; "collections" ]
    ~rows:
      (List.map
         (fun bench ->
           let s =
             find samples ~bench
               ~procs:(List.fold_left max 1 (procs_of samples))
           in
           [ bench; string_of_int s.spins; string_of_int s.gc_count ])
         benches)

let print_gc_ablation fmt samples =
  Render.section fmt
    "E6: GC ablation (paper: without GC, abisort/allpairs 'considerably \
     higher', same shape)";
  let pmax = List.fold_left max 1 (procs_of samples) in
  Render.table fmt
    ~header:
      [ "bench"; "speedup@max"; "speedup w/o GC"; "gc share @max"; "gc runs" ]
    ~rows:
      (List.map
         (fun bench ->
           let s = find samples ~bench ~procs:pmax in
           [
             bench;
             Printf.sprintf "%.2f" (speedup samples ~bench ~procs:pmax);
             Printf.sprintf "%.2f" (speedup_no_gc samples ~bench ~procs:pmax);
             Printf.sprintf "%.0f%%" (100. *. s.gc /. s.elapsed);
             string_of_int s.gc_count;
           ])
         benches)

let print_gc_models fmt sweeps =
  Render.section fmt
    "E8: GC cost models (paper 6.2: collector headroom -- stw vs par_stw vs \
     minor_pp)";
  (match sweeps with
  | (_, samples) :: _ ->
      let ps = procs_of samples in
      let pmax = List.fold_left max 1 ps in
      List.iter
        (fun bench ->
          Format.fprintf fmt "@.%s: speedup per collector@." bench;
          Render.series fmt ~xlabel:"speedup@procs" ~xs:ps
            ~rows:
              (List.map
                 (fun (gc, samples) ->
                   (gc, List.map (fun p -> speedup samples ~bench ~procs:p) ps))
                 sweeps))
        benches;
      Format.fprintf fmt "@.collector accounting at %d procs (mm):@." pmax;
      Render.table fmt
        ~header:
          [ "model"; "speedup"; "gc share"; "minors"; "majors"; "verified" ]
        ~rows:
          (List.map
             (fun (gc, samples) ->
               let s = find samples ~bench:"mm" ~procs:pmax in
               [
                 gc;
                 Printf.sprintf "%.2f" (speedup samples ~bench:"mm" ~procs:pmax);
                 Printf.sprintf "%.0f%%" (100. *. s.gc /. s.elapsed);
                 string_of_int s.gc_minor;
                 string_of_int s.gc_major;
                 (if s.verified then "yes" else "NO");
               ])
             sweeps)
  | [] -> Format.fprintf fmt "no samples@.")

let print_lock_latency fmt =
  Render.section fmt
    "E3: mutex lock+unlock latency (paper: 6 us SGI vs 46 us Sequent)";
  let measure (config : Sim.Sim_config.t) =
    (* measured inside the simulator: time n uncontended lock/unlock pairs *)
    let module P =
      Sim.Mp_sim.Int
        (struct
          let config = config
        end)
        ()
    in
    let n = 1000 in
    let t =
      P.run (fun () ->
          let l = P.Lock.mutex_lock () in
          let t0 = P.Work.now () in
          for _ = 1 to n do
            P.Lock.lock l;
            P.Lock.unlock l
          done;
          P.Work.now () -. t0)
    in
    t /. float_of_int n *. 1.0e6
  in
  let sequent = measure (Sim.Sim_config.sequent ~procs:1 ()) in
  let sgi = measure (Sim.Sim_config.sgi ~procs:1 ()) in
  Render.table fmt
    ~header:[ "machine"; "measured us/pair"; "paper us/pair" ]
    ~rows:
      [
        [ "sequent"; Printf.sprintf "%.1f" sequent; "46" ];
        [ "sgi"; Printf.sprintf "%.1f" sgi; "6" ];
      ];
  Format.fprintf fmt "@.ratio measured %.1fx vs paper %.1fx@." (sequent /. sgi)
    (46. /. 6.)

let print_portability fmt =
  Render.section fmt
    "E2: portability inventory (paper: SGI 144+15, Sequent 267+10, Luna \
     630+34 system-dependent lines of ~7400 total)";
  match Loc_count.find_root () with
  | Some root -> Loc_count.print fmt (Loc_count.scan ~root)
  | None ->
      Format.fprintf fmt
        "project root not found from cwd; run from the repository@."

let print_sgi fmt samples =
  Render.section fmt
    "E7: the SGI model (paper: faster procs, same bus -- memory contention \
     swamps all other effects)";
  let ps = procs_of samples in
  Render.series fmt ~xlabel:"speedup@procs" ~xs:ps
    ~rows:
      (List.map
         (fun bench ->
           (bench, List.map (fun p -> speedup samples ~bench ~procs:p) ps))
         benches);
  Format.fprintf fmt "@.bus utilization at max procs:@.";
  let pmax = List.fold_left max 1 ps in
  Render.table fmt ~header:[ "bench"; "bus util"; "bus MB/s" ]
    ~rows:
      (List.map
         (fun bench ->
           let s = find samples ~bench ~procs:pmax in
           [
             bench;
             Printf.sprintf "%.0f%%" (100. *. s.bus_util);
             Printf.sprintf "%.1f" s.bus_mb;
           ])
         benches)
