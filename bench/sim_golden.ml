(* Golden-value generator for the simulator's determinism-equivalence tests.

   Prints, for every bench-suite workload at procs in {1,4,16} on the
   16-proc Sequent model, the virtual-time invariants that any scheduler
   change must preserve bit-for-bit (makespan cycles, collections, bus
   bytes) plus host-side cost counters (effect-handler suspensions,
   scheduler decisions, host CPU seconds) that changes are allowed — and
   expected — to improve.

   Usage: dune exec bench/sim_golden.exe [-- --jobs N]
   --jobs (or MP_REPRO_JOBS) fans the cells across host domains; each cell
   runs on a private machine instance and lines print in grid order, so the
   GOLDEN values are identical for every N.  MP_REPRO_SCHED selects the
   scheduling policy (default distributed — the policy the test table
   pins) and MP_REPRO_GC the GC cost model (default stw — likewise the
   pinned one); under any (policy, collector) pair the output must stay
   identical across --jobs values, which is what CI's ws-policy and
   minor_pp jobs-diff legs check.
   After the Sequent grid come NUMA rows: mm, mst and seq at 16 procs on
   the two-node numa:2x8 machine, adding remote (link) bytes and
   invalidations, so the hierarchical charge path is pinned by absolute
   values and not only by its always-suspend twin.
   Paste the GOLDEN lines into the tables in test/test_sim.ml when adding a
   workload; never update them to absorb a virtual-time change without
   understanding why the change is correct. *)

let sched = Mpthreads.Sched_policy.resolve ()
let gc = Sim.Gc_model.resolve ()

let flat_cell (name, procs) =
  let module Seq16 =
    Sim.Mp_sim.Int (struct
        let config =
          Sim.Sim_config.with_gc
            (Sim.Sim_config.sequent ~procs:16
               ~sched:(Mpthreads.Sched_policy.to_string sched) ())
            gc
      end)
      ()
  in
  let module B = Workloads.Bench_suite.Make (Seq16) in
  Mp.Engine.reset_suspensions ();
  let t0 = Sys.time () in
  let witness = B.run_named ~sched name ~procs in
  let host = Sys.time () -. t0 in
  Printf.sprintf
    "GOLDEN %-8s sched=%-12s gcm=%-9s procs=%-2d makespan=%-12d gc=%-3d \
     bus=%-12d witness=%d susp=%d decisions=%d host=%.3fs"
    name
    (Mpthreads.Sched_policy.to_string sched)
    (Sim.Gc_model.to_string gc)
    procs
    (Seq16.Machine.makespan_cycles ())
    (Seq16.Machine.gc_collections ())
    (Seq16.Machine.bus_bytes ())
    witness
    (Mp.Engine.suspensions ())
    (Seq16.Machine.sched_decisions ())
    host

let numa_cell name =
  let procs = 16 in
  let module N =
    Sim.Mp_sim.Int (struct
        let config =
          Sim.Sim_config.with_gc
            (Sim.Sim_config.numa ~nodes:2 ~procs_per_node:8
               ~sched:(Mpthreads.Sched_policy.to_string sched) ())
            gc
      end)
      ()
  in
  let module B = Workloads.Bench_suite.Make (N) in
  Mp.Engine.reset_suspensions ();
  let t0 = Sys.time () in
  let witness = B.run_named ~sched name ~procs in
  let host = Sys.time () -. t0 in
  Printf.sprintf
    "GOLDEN %-8s sched=%-12s gcm=%-9s machine=numa:2x8 procs=%-2d \
     makespan=%-12d bus=%-12d remote=%-10d inval=%-7d witness=%d susp=%d \
     decisions=%d host=%.3fs"
    name
    (Mpthreads.Sched_policy.to_string sched)
    (Sim.Gc_model.to_string gc)
    procs
    (N.Machine.makespan_cycles ())
    (N.Machine.bus_bytes ())
    (N.Machine.remote_bytes ())
    (N.Machine.invalidations ())
    witness
    (Mp.Engine.suspensions ())
    (N.Machine.sched_decisions ())
    host

let golden_cell = function
  | `Flat cell -> flat_cell cell
  | `Numa name -> numa_cell name

let () =
  let jobs = Exec.Job_pool.parse_jobs Sys.argv in
  let cells =
    List.concat_map
      (fun name -> List.map (fun procs -> `Flat (name, procs)) [ 1; 4; 16 ])
      Workloads.Bench_suite.names
    @ List.map (fun name -> `Numa name) [ "mm"; "mst"; "seq" ]
  in
  List.iter print_endline (Exec.Job_pool.map ~jobs golden_cell cells)
