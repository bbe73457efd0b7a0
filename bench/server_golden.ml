(* Golden-value generator for the open-loop server workload's determinism
   tests: one line per (sched, procs) cell of the default server config on
   the 16-proc Sequent model, digesting the virtual-time latency histogram
   (count, sum, p50/p95/p99/p999 in ns) plus elapsed/throughput.  Paste the
   GOLDEN lines into the table in test/test_server.ml when the pinned
   config changes; as with sim_golden, never update them to absorb a
   virtual-time change without understanding why the change is correct.

   Usage: dune exec bench/server_golden.exe [-- --jobs N]
   Cells run on private machine instances and print in grid order, so the
   output is identical for every N. *)

let digest (sched, procs) =
  let module M =
    Sim.Mp_sim.Int (struct
        let config =
          Sim.Sim_config.sequent ~procs:16
            ~sched:(Mpthreads.Sched_policy.to_string sched) ()
      end)
      ()
  in
  let module S = Workloads.Server.Make (M) in
  let r = S.run ~procs ~sched Workloads.Server.default in
  Printf.sprintf
    "GOLDEN server sched=%-12s procs=%-2d count=%d sum=%d p50=%d p95=%d \
     p99=%d p999=%d elapsed=%.9f tput=%.3f qwait=%.9f"
    (Mpthreads.Sched_policy.to_string sched)
    procs
    (Obs.Histogram.count r.Workloads.Server.hist)
    (Obs.Histogram.sum r.Workloads.Server.hist)
    r.Workloads.Server.p50 r.Workloads.Server.p95 r.Workloads.Server.p99
    r.Workloads.Server.p999 r.Workloads.Server.elapsed
    r.Workloads.Server.throughput r.Workloads.Server.queue_wait

let () =
  let jobs = Exec.Job_pool.parse_jobs Sys.argv in
  let cells =
    List.concat_map
      (fun sched ->
        List.map (fun procs -> (sched, procs)) [ 1; 4; 16 ])
      Mpthreads.Sched_policy.[ Fifo; Distributed; Ws ]
  in
  List.iter print_endline (Exec.Job_pool.map ~jobs digest cells)
