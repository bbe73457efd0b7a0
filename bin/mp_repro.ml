(* Command-line driver for the reproduction experiments.

   mp_repro fig6 [--procs 1,4,16]    Figure 6 speedup sweep
   mp_repro idle | bus | gc | sgi    the other evaluation sections
   mp_repro gc_sweep                 fig6 once per GC cost model (E8)
   mp_repro server                   open-loop latency tails + knee (E9)
   mp_repro locks                    lock latency microtable (E3)
   mp_repro portability              source-line inventory (E2)
   mp_repro all [--quick]            everything

   Every sweep subcommand takes --sched POLICY (or the MP_REPRO_SCHED
   environment variable) to run the thread pools under a different
   scheduling policy, and --gc MODEL (or MP_REPRO_GC) to price heap
   allocation under a different GC cost model. *)

open Cmdliner

let fmt = Format.std_formatter

let procs_arg =
  let doc = "Comma-separated proc counts for the sweep (default 1..16)." in
  Arg.(value & opt (some (list int)) None & info [ "procs" ] ~doc)

let quick_arg =
  let doc = "Reduced sweep (1,4,16)." in
  Arg.(value & flag & info [ "quick" ] ~doc)

let jobs_arg =
  let doc =
    "Fan the sweep's independent (bench, procs) cells across $(docv) host \
     domains.  Results are merged in grid order, so all output is \
     identical for every value.  Defaults to $(b,MP_REPRO_JOBS) or 1."
  in
  Arg.(value & opt (some int) None & info [ "jobs"; "j" ] ~docv:"N" ~doc)

let sched_arg =
  let doc =
    "Thread-scheduler policy for the sweep's pools: one of \
     $(b,fifo)|$(b,lifo)|$(b,distributed)|$(b,ws)|$(b,micropools[:K]).  \
     Defaults to $(b,MP_REPRO_SCHED) or $(b,distributed)."
  in
  Arg.(value & opt (some string) None & info [ "sched" ] ~docv:"POLICY" ~doc)

(* --sched beats MP_REPRO_SCHED beats the distributed default; re-render to
   the canonical spelling for sweep cache keys and sample labels. *)
let resolve_sched explicit =
  Mpthreads.Sched_policy.(to_string (resolve ?explicit ()))

let gc_arg =
  let doc =
    "GC cost model for the sweep's machines: one of \
     $(b,stw)|$(b,par_stw[:N])|$(b,minor_pp).  $(b,stw) is the paper's \
     sequential stop-the-world collector; $(b,par_stw) splits the copy \
     across up to N collectors; $(b,minor_pp) gives each proc a private \
     minor heap.  Defaults to $(b,MP_REPRO_GC) or $(b,stw)."
  in
  Arg.(value & opt (some string) None & info [ "gc" ] ~docv:"MODEL" ~doc)

(* --gc beats MP_REPRO_GC beats the stw default; same canonicalization
   scheme as resolve_sched. *)
let resolve_gc explicit = Sim.Gc_model.(to_string (resolve ?explicit ()))

let machine_arg =
  let doc =
    "Machine model for the sweep: \
     $(b,sequent)|$(b,sgi)|$(b,numa:<nodes>x<procs>)|$(b,numa1024) (e.g. \
     $(b,numa:4x16) = 4 nodes of 16 procs each, joined by a shared \
     inter-node link).  Default $(b,sequent), the paper's flat-bus \
     machine.  Machines larger than 16 procs default to the \
     powers-of-four proc list 1,4,...,1024 clamped to the machine."
  in
  Arg.(value & opt (some string) None & info [ "machine" ] ~docv:"MACHINE" ~doc)

let trace_arg =
  let doc =
    "Stream telemetry events (scheduler, lock, GC, ...) to $(docv) as JSONL \
     while the experiment runs.  Large for full sweeps; combine with \
     $(b,--quick) for a bounded file."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let maybe_trace trace go =
  match trace with
  | None -> go ()
  | Some path -> Report.Experiments.trace path go

let plist_of quick procs =
  match procs with
  | Some l -> Some l
  | None -> if quick then Some [ 1; 4; 16 ] else None

(* --quick on any machine but the Sequent trims the powers-of-four list
   rather than using the flat 1,4,16 grid (the sweep clamps it to the
   machine size). *)
let sweep ?(machine = "sequent") quick procs jobs sched gc =
  let plist =
    if machine = "sequent" || procs <> None then plist_of quick procs
    else if quick then Some [ 1; 4; 16; 64 ]
    else None
  in
  Report.Experiments.sweep ?plist ?jobs ~sched:(resolve_sched sched)
    ~gc:(resolve_gc gc) ~machine ()

let fig6_cmd =
  let run quick procs jobs sched gc machine trace =
    maybe_trace trace (fun () ->
        Report.Experiments.print_fig6 fmt
          (sweep ?machine quick procs jobs sched gc))
  in
  Cmd.v (Cmd.info "fig6" ~doc:"Self-relative speedup curves (Figure 6)")
    Term.(
      const run $ quick_arg $ procs_arg $ jobs_arg $ sched_arg $ gc_arg
      $ machine_arg $ trace_arg)

let idle_cmd =
  let run quick procs jobs sched gc machine =
    Report.Experiments.print_idle fmt (sweep ?machine quick procs jobs sched gc)
  in
  Cmd.v (Cmd.info "idle" ~doc:"Processor idle fractions (E4)")
    Term.(
      const run $ quick_arg $ procs_arg $ jobs_arg $ sched_arg $ gc_arg
      $ machine_arg)

let bus_cmd =
  let run quick procs jobs sched gc machine =
    Report.Experiments.print_bus fmt (sweep ?machine quick procs jobs sched gc)
  in
  Cmd.v (Cmd.info "bus" ~doc:"Memory-bus traffic and contention (E5)")
    Term.(
      const run $ quick_arg $ procs_arg $ jobs_arg $ sched_arg $ gc_arg
      $ machine_arg)

let gc_cmd =
  let run quick procs jobs sched gc machine =
    Report.Experiments.print_gc_ablation fmt
      (sweep ?machine quick procs jobs sched gc)
  in
  Cmd.v (Cmd.info "gc" ~doc:"GC ablation (E6)")
    Term.(
      const run $ quick_arg $ procs_arg $ jobs_arg $ sched_arg $ gc_arg
      $ machine_arg)

let gc_sweep_cmd =
  let run quick procs jobs sched machine =
    Report.Experiments.print_gc_models fmt
      (Report.Experiments.gc_sweep ?plist:(plist_of quick procs) ?jobs
         ~sched:(resolve_sched sched) ?machine ())
  in
  Cmd.v
    (Cmd.info "gc_sweep"
       ~doc:
         "Replay fig6 once per GC cost model (stw, par_stw, minor_pp) and \
          lay the speedup curves side by side: the paper-\xc2\xa76.2 \
          collector-headroom analysis (E8)")
    Term.(
      const run $ quick_arg $ procs_arg $ jobs_arg $ sched_arg $ machine_arg)

let sgi_cmd =
  let run quick procs jobs sched gc =
    Report.Experiments.print_sgi fmt
      (sweep ~machine:"sgi" quick procs jobs sched gc)
  in
  Cmd.v (Cmd.info "sgi" ~doc:"The SGI machine model sweep (E7)")
    Term.(const run $ quick_arg $ procs_arg $ jobs_arg $ sched_arg $ gc_arg)

let server_cmd =
  let json_arg =
    let doc = "Also write the sweep to $(b,BENCH_server.json)." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let run quick jobs machine json =
    let machine = Option.value machine ~default:"sequent" in
    let jobs = Exec.Job_pool.resolve_jobs jobs in
    let grid = Report.Server_bench.grid ~quick ~jobs ~machine () in
    let ramp = Report.Server_bench.ramp ~quick ~jobs ~machine () in
    Report.Server_bench.print_server fmt grid ramp;
    if json then begin
      let oc = open_out "BENCH_server.json" in
      output_string oc (Report.Server_bench.to_json ~quick grid ramp);
      close_out oc;
      (* stderr, so stdout stays byte-identical with and without --json *)
      Printf.eprintf "wrote BENCH_server.json\n"
    end
  in
  Cmd.v
    (Cmd.info "server"
       ~doc:
         "Open-loop server workload (E9): seeded Poisson arrivals through \
          the CML accept/shard/work/reply pipeline; latency-tail grid per \
          (scheduler, procs) plus a saturation ramp with the per-scheduler \
          p99 knee")
    Term.(const run $ quick_arg $ jobs_arg $ machine_arg $ json_arg)

let locks_cmd =
  let run () = Report.Experiments.print_lock_latency fmt in
  Cmd.v (Cmd.info "locks" ~doc:"Lock latency vs the paper's 6/46 us (E3)")
    Term.(const run $ const ())

let portability_cmd =
  let run () = Report.Experiments.print_portability fmt in
  Cmd.v
    (Cmd.info "portability" ~doc:"Source-line inventory, the paper's E2 table")
    Term.(const run $ const ())

let all_cmd =
  let run quick procs jobs sched gc machine trace =
    Report.Experiments.print_lock_latency fmt;
    Report.Experiments.print_portability fmt;
    maybe_trace trace (fun () ->
        let s = sweep ?machine quick procs jobs sched gc in
        Report.Experiments.print_fig6 fmt s;
        Report.Experiments.print_idle fmt s;
        Report.Experiments.print_bus fmt s;
        Report.Experiments.print_gc_ablation fmt s);
    Report.Experiments.print_sgi fmt
      (sweep ~machine:"sgi" false
         (if quick then Some [ 1; 4; 8 ] else None)
         jobs sched gc)
  in
  Cmd.v (Cmd.info "all" ~doc:"Every evaluation section")
    Term.(
      const run $ quick_arg $ procs_arg $ jobs_arg $ sched_arg $ gc_arg
      $ machine_arg $ trace_arg)

let () =
  let info =
    Cmd.info "mp_repro" ~version:"1.0"
      ~doc:
        "Regenerate the evaluation of 'Procs and Locks: A Portable \
         Multiprocessing Platform for Standard ML of New Jersey' (PPOPP \
         1993) on the simulated Sequent/SGI machines"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            fig6_cmd;
            idle_cmd;
            bus_cmd;
            gc_cmd;
            gc_sweep_cmd;
            sgi_cmd;
            server_cmd;
            locks_cmd;
            portability_cmd;
            all_cmd;
          ]))
