(* Running a workload on the simulated Sequent Symmetry and reading the
   machine-level statistics: virtual elapsed time, collections, bus traffic
   and per-proc busy/idle breakdown.

   Run: dune exec examples/simulate.exe *)

module Sequent =
  Sim.Mp_sim.Int (struct
      let config = Sim.Sim_config.sequent ~procs:8 ()
    end)
    ()

module Bench = Workloads.Bench_suite.Make (Sequent)

let () =
  let checksum = Bench.mm ~procs:8 () in
  let stats = Sequent.stats () in
  Printf.printf "mm on the simulated Sequent, 8 procs (checksum %d)\n" checksum;
  Printf.printf "virtual elapsed      : %.3f s\n" stats.Mp.Stats.elapsed;
  Printf.printf "collections          : %d (%.3f s, all procs stalled)\n"
    stats.Mp.Stats.gc_count stats.Mp.Stats.gc_time;
  Printf.printf "bus traffic          : %.1f MB/s (%.0f%% utilized)\n"
    (Mp.Stats.bus_mb_per_sec stats)
    (100. *. Mp.Stats.bus_utilization stats);
  Printf.printf "mean idle fraction   : %.1f%%\n"
    (100. *. Mp.Stats.idle_fraction stats);
  Array.iteri
    (fun i p ->
      Printf.printf "  proc %d: busy %.3fs idle %.3fs gc-wait %.3fs\n" i
        p.Mp.Stats.busy p.Mp.Stats.idle p.Mp.Stats.gc_wait)
    stats.Mp.Stats.per_proc
