(* Command-line driver for the reproduction: every table, figure, golden
   and gate.

   mp_repro fig6 [--procs 1,4,16]    Figure 6 speedup sweep
   mp_repro idle | bus | gc | sgi    the other evaluation sections
   mp_repro gc_sweep                 fig6 once per GC cost model (E8)
   mp_repro server                   open-loop latency tails + knee (E9)
   mp_repro locks                    lock latency microtable (E3)
   mp_repro portability              source-line inventory (E2)
   mp_repro all [--quick]            everything above but E8/E9, plus the
                                     model, ablation, lock-scaling and
                                     sensitivity sections
   mp_repro sim_core [--json]        host cost of simulating (BENCH_sim.json)
   mp_repro sim_golden               the values test_sim pins
   mp_repro server_golden            the values test_server pins
   mp_repro check                    the mp_check gate

   Every sweep subcommand takes --sched POLICY to run the thread pools
   under a different scheduling policy, and --gc MODEL to price heap
   allocation under a different GC cost model. *)

open Cmdliner

let fmt = Format.std_formatter

let procs_arg =
  let doc =
    "Comma-separated proc counts for the sweep (default 1..16); each must \
     fit the machine.  The 1-proc baseline always runs."
  in
  Arg.(value & opt (some (list int)) None & info [ "procs" ] ~doc)

let quick_arg =
  let doc = "Reduced sweep (1,4,16)." in
  Arg.(value & flag & info [ "quick" ] ~doc)

let jobs_arg =
  let doc =
    "Fan the independent cells across $(docv) host domains.  Results are \
     merged in grid order, so all output is identical for every value."
  in
  Arg.(value & opt int 1 & info [ "jobs"; "j" ] ~docv:"N" ~doc)

let conv_of of_string to_string =
  Arg.conv
    ( (fun s -> Result.map_error (fun m -> `Msg m) (of_string s)),
      fun ppf v -> Format.pp_print_string ppf (to_string v) )

let sched_arg =
  let doc =
    "Thread-scheduler policy for the pools: one of \
     $(b,fifo)|$(b,lifo)|$(b,distributed)|$(b,ws)|$(b,micropools[:K])."
  in
  Arg.(
    value
    & opt
        (conv_of Mpthreads.Sched_policy.of_string Mpthreads.Sched_policy.to_string)
        Mpthreads.Sched_policy.default
    & info [ "sched" ] ~docv:"POLICY" ~doc)

let gc_arg =
  let doc =
    "GC cost model for the machines: one of \
     $(b,stw)|$(b,par_stw[:N])|$(b,minor_pp).  $(b,stw) is the paper's \
     sequential stop-the-world collector; $(b,par_stw) splits the copy \
     across up to N collectors; $(b,minor_pp) gives each proc a private \
     minor heap."
  in
  Arg.(
    value
    & opt (conv_of Sim.Gc_model.of_string Sim.Gc_model.to_string) Sim.Gc_model.default
    & info [ "gc" ] ~docv:"MODEL" ~doc)

let machine_arg =
  let doc =
    "Machine model for the sweep: \
     $(b,sequent)|$(b,sgi)|$(b,numa:<nodes>x<procs>)|$(b,numa1024) (e.g. \
     $(b,numa:4x16) = 4 nodes of 16 procs each, joined by a shared \
     inter-node link).  Default $(b,sequent), the paper's flat-bus \
     machine.  Machines larger than 16 procs default to the \
     powers-of-four proc list 1,4,...,1024 clamped to the machine."
  in
  let parse s = Result.map (fun _ -> s) (Sim.Sim_config.of_machine_string s) in
  Arg.(
    value
    & opt (conv_of parse Fun.id) "sequent"
    & info [ "machine" ] ~docv:"MACHINE" ~doc)

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

(* A sweep's proc list: an explicit --procs entry outside the machine is a
   usage error, and --quick trims to [quick_list] (1,4,16 on the Sequent,
   the powers of four up to 64 elsewhere), which the sweep clamps to the
   machine size. *)
let plist ~machine ?quick_list quick procs =
  let n = (Sim.Sim_config.of_machine_string_exn machine).Sim.Sim_config.procs in
  let quick_list =
    Option.value quick_list
      ~default:(if machine = "sequent" then [ 1; 4; 16 ] else [ 1; 4; 16; 64 ])
  in
  match procs with
  | None -> Ok (if quick then Some quick_list else None)
  | Some l -> (
      match List.find_opt (fun p -> p < 1 || p > n) l with
      | Some p ->
          Error
            (Printf.sprintf "--procs %d: machine %s has procs 1..%d" p machine n)
      | None -> Ok procs)

(* The flags every sweep subcommand shares; [plist] is checked against
   [machine]. *)
type sweep = {
  quick : bool;
  plist : int list option;
  jobs : int;
  sched : Mpthreads.Sched_policy.t;
  gc : Sim.Gc_model.t;
  machine : string;
}

let sweep_term ?(machine = machine_arg) () =
  let make quick procs jobs sched gc machine =
    match plist ~machine quick procs with
    | Error msg -> `Error (true, msg)
    | Ok plist -> `Ok { quick; plist; jobs; sched; gc; machine }
  in
  Term.(
    ret
      (const make $ quick_arg $ procs_arg $ jobs_arg $ sched_arg $ gc_arg
     $ machine))

let run sw =
  Report.Experiments.sweep ?plist:sw.plist ~jobs:sw.jobs
    ~sched:(Mpthreads.Sched_policy.to_string sw.sched)
    ~gc:(Sim.Gc_model.to_string sw.gc) ~machine:sw.machine ()

let section_cmd name doc print =
  Cmd.v (Cmd.info name ~doc)
    Term.(const (fun sw -> print fmt (run sw)) $ sweep_term ())

let fig6_cmd =
  let run sw trace =
    maybe_trace trace (fun () ->
        Report.Experiments.print_fig6 fmt (run sw))
  in
  Cmd.v (Cmd.info "fig6" ~doc:"Self-relative speedup curves (Figure 6)")
    Term.(const run $ sweep_term () $ trace_arg)

let gc_sweep_cmd =
  let run quick procs jobs sched machine =
    match plist ~machine ~quick_list:[ 1; 4; 16 ] quick procs with
    | Error msg -> `Error (true, msg)
    | Ok plist ->
        `Ok
          (Report.Experiments.print_gc_models fmt
             (Report.Experiments.gc_sweep ?plist ~jobs
                ~sched:(Mpthreads.Sched_policy.to_string sched) ~machine ()))
  in
  Cmd.v
    (Cmd.info "gc_sweep"
       ~doc:
         "Replay fig6 once per GC cost model (stw, par_stw, minor_pp) and \
          lay the speedup curves side by side: the paper-\xc2\xa76.2 \
          collector-headroom analysis (E8)")
    Term.(
      ret
        (const run $ quick_arg $ procs_arg $ jobs_arg $ sched_arg
       $ machine_arg))

let sgi_cmd =
  Cmd.v (Cmd.info "sgi" ~doc:"The SGI machine model sweep (E7)")
    Term.(
      const (fun sw -> Report.Experiments.print_sgi fmt (run sw))
      $ sweep_term ~machine:(Term.const "sgi") ())

let server_cmd =
  let json_arg =
    let doc = "Also write the sweep to $(b,BENCH_server.json)." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let run quick jobs machine json =
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
  let run sw trace =
    Report.Experiments.print_lock_latency fmt;
    Report.Experiments.print_portability fmt;
    let s =
      maybe_trace trace (fun () ->
          let s = run sw in
          Report.Experiments.print_fig6 fmt s;
          Report.Experiments.print_idle fmt s;
          Report.Experiments.print_bus fmt s;
          Report.Experiments.print_gc_ablation fmt s;
          s)
    in
    Sections.print_model fmt s;
    Sections.print_ablations fmt;
    Sections.print_lock_scaling fmt ~jobs:sw.jobs ~sched:sw.sched;
    Sections.print_sensitivity fmt;
    Report.Experiments.print_sgi fmt
      (run
         {
           sw with
           machine = "sgi";
           plist = (if sw.quick then Some [ 1; 4; 8 ] else None);
         })
  in
  Cmd.v
    (Cmd.info "all"
       ~doc:
         "E1-E7 plus the model cross-check, ablation, lock-scaling and           sensitivity sections")
    Term.(const run $ sweep_term () $ trace_arg)

let sim_core_cmd =
  let json_arg =
    let doc = "Also write the grid to $(b,BENCH_sim.json)." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let run quick json jobs =
    let rows = Sections.sim_core ~jobs ~quick in
    Sections.print_sim_core fmt rows;
    if json then begin
      Sections.write_sim_json rows "BENCH_sim.json";
      Format.fprintf fmt "@.wrote BENCH_sim.json@."
    end;
    Sections.refuse_unverified rows
  in
  Cmd.v
    (Cmd.info "sim_core"
       ~doc:
         "Host-time cost of the simulator per (machine, scheduler, GC model, \
          workload, procs) cell: scheduler decisions, effect-handler \
          suspensions, charges coalesced by run-ahead.  Exits 1, naming the \
          cell, if a cell's witness does not match its reference")
    Term.(const run $ quick_arg $ json_arg $ jobs_arg)

let sim_golden_cmd =
  let run sched gc jobs =
    let rows = Sections.golden_rows ~jobs ~sched ~gc in
    List.iter (fun r -> print_endline (Sections.golden_line r)) rows;
    Sections.refuse_unverified rows
  in
  Cmd.v
    (Cmd.info "sim_golden"
       ~doc:
         "One GOLDEN line per workload and proc count: the virtual-time \
          values test/test_sim.ml pins, plus host-side cost counts.  Exits \
          1, naming the cell, if a cell's witness does not match its \
          reference")
    Term.(const run $ sched_arg $ gc_arg $ jobs_arg)

let server_golden_cmd =
  let run jobs =
    List.iter
      (fun c -> print_endline (Report.Server_bench.golden_line c))
      (Report.Server_bench.grid ~jobs ())
  in
  Cmd.v
    (Cmd.info "server_golden"
       ~doc:
         "One GOLDEN line per (scheduler, procs) cell of the default server \
          config: the values test/test_server.ml pins")
    Term.(const run $ jobs_arg)

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
            section_cmd "idle" "Processor idle fractions (E4)"
              Report.Experiments.print_idle;
            section_cmd "bus" "Memory-bus traffic and contention (E5)"
              Report.Experiments.print_bus;
            section_cmd "gc" "GC ablation (E6)"
              Report.Experiments.print_gc_ablation;
            gc_sweep_cmd;
            sgi_cmd;
            server_cmd;
            locks_cmd;
            portability_cmd;
            all_cmd;
            sim_core_cmd;
            sim_golden_cmd;
            server_golden_cmd;
            Check_gate.cmd;
          ]))
