(* Open-loop server workload: golden determinism cells on the simulator,
   latency-tail ordering, the pure generators, and qcheck properties of the
   log-bucketed histogram it reports through.

   The GOLDEN table is produced by `mp_repro server_golden` — regenerate
   with `dune exec bin/mp_repro.exe -- server_golden` when the pinned
   default config changes, and never update it to absorb a virtual-time
   change without understanding why the change is correct. *)

let check = Alcotest.(check int)

(* ---------------- golden determinism cells ---------------- *)

(* The line `mp_repro server_golden` prints, from the cell runner its grid
   and the E9 sweep use. *)
let digest (sched, procs) =
  Report.Server_bench.(
    golden_line
      (run_cell ~machine:"sequent" ~config:Workloads.Server.default
         ( Mpthreads.Sched_policy.to_string sched,
           procs,
           Workloads.Server.default.Workloads.Server.rate )))

let golden =
  Mpthreads.Sched_policy.
    [
      ( (Fifo, 1),
        "GOLDEN server sched=fifo         procs=1  count=2000 \
         sum=7589691914335 p50=3758096383 p95=7247757311 p99=7516192767 \
         p999=7528816350 elapsed=15.561608000 tput=128.521 \
         qwait=0.000000000" );
      ( (Fifo, 4),
        "GOLDEN server sched=fifo         procs=4  count=2000 \
         sum=33292164956 p50=12058623 p95=52428799 p99=75497471 \
         p999=96468991 elapsed=8.063353062 tput=248.036 qwait=0.000000000" );
      ( (Fifo, 16),
        "GOLDEN server sched=fifo         procs=16 count=2000 \
         sum=33086515985 p50=11534335 p95=50331647 p99=75497471 \
         p999=96468991 elapsed=8.063823313 tput=248.021 qwait=0.000000000" );
      ( (Distributed, 1),
        "GOLDEN server sched=distributed  procs=1  count=2000 \
         sum=7518810880209 p50=3892314111 p95=7516192767 p99=7784628223 \
         p999=7821084695 elapsed=15.458695375 tput=129.377 \
         qwait=12.097736375" );
      ( (Distributed, 4),
        "GOLDEN server sched=distributed  procs=4  count=2000 \
         sum=33356378731 p50=11534335 p95=52428799 p99=75497471 \
         p999=96468991 elapsed=8.063111062 tput=248.043 qwait=0.000000000" );
      ( (Distributed, 16),
        "GOLDEN server sched=distributed  procs=16 count=2000 \
         sum=32508325731 p50=11534335 p95=50331647 p99=71303167 \
         p999=96468991 elapsed=8.063249500 tput=248.039 qwait=0.000000000" );
      ( (Ws, 1),
        "GOLDEN server sched=ws           procs=1  count=2000 \
         sum=7254187218777 p50=3623878655 p95=6979321855 p99=7229317173 \
         p999=7229317173 elapsed=15.097292687 tput=132.474 \
         qwait=12.578521938" );
      ( (Ws, 4),
        "GOLDEN server sched=ws           procs=4  count=2000 \
         sum=32204034594 p50=11534335 p95=50331647 p99=71303167 \
         p999=96468991 elapsed=8.062675125 tput=248.057 \
         qwait=0.000000000" );
      ( (Ws, 16),
        "GOLDEN server sched=ws           procs=16 count=2000 \
         sum=31496331091 p50=11010047 p95=48234495 p99=71303167 \
         p999=96468991 elapsed=8.062643062 tput=248.058 \
         qwait=0.000000000" );
    ]

let golden_case cell expected () =
  Alcotest.(check string) "server golden digest" expected (digest cell)

(* Same seed, fresh machine instance: the virtual-time histogram is
   bit-identical run-to-run (determinism, not just stability of a single
   instance's state). *)
let test_rerun_identical () =
  let cell = (Mpthreads.Sched_policy.Distributed, 4) in
  Alcotest.(check string) "rerun digest" (digest cell) (digest cell)

(* The acceptance exhibit: work stealing beats the central FIFO queue on
   the p99 tail at full machine width. *)
let test_ws_tail_beats_fifo () =
  let p99 sched =
    (Report.Server_bench.run_cell ~machine:"sequent"
       ~config:Workloads.Server.default
       (sched, 16, Workloads.Server.default.Workloads.Server.rate))
      .Report.Server_bench.p99_ns
  in
  let fifo = p99 "fifo" in
  let ws = p99 "ws" in
  if ws >= fifo then
    Alcotest.failf "ws p99 %d not below central fifo p99 %d at 16 procs" ws
      fifo

(* Host cost of simulating the pinned ws@16 cell, on a machine of its own
   so that its scheduler counters can be read.  An idle ws proc peeks at a
   queue before it pays a charged read of it, and it enters a steal sweep
   only while fewer procs are sweeping than there are non-empty queues, so
   an item that wakes every poller sets at most one of them probing each
   loaded queue: 49 suspensions per request and about 1.2 steal attempts
   per steal (76 and about 5 when every woken poller swept). *)
module Ws16 = struct
  module M =
    Sim.Mp_sim.Int
      (struct
        let config = Sim.Sim_config.of_machine_string_exn ~sched:"ws" "sequent"
      end)
      ()

  module S = Workloads.Server.Make (M)
end

let test_ws_suspension_budget () =
  let cfg = Workloads.Server.default in
  ignore (Ws16.S.run ~procs:16 ~sched:Mpthreads.Sched_policy.Ws cfg);
  let susp = (Ws16.M.stats ()).Mp.Stats.suspensions in
  let per_request =
    float_of_int susp /. float_of_int cfg.Workloads.Server.requests
  in
  if per_request > 60. then
    Alcotest.failf "ws@16 took %d suspensions, %.0f per request (budget 60)"
      susp per_request;
  let count name = Obs.Counters.get (Ws16.M.Telemetry.counter name) in
  let steals = count "sched.steals"
  and attempts = count "sched.steal_attempts" in
  if steals = 0 || attempts > 2 * steals then
    Alcotest.failf "ws@16 made %d steal attempts for %d steals (budget 2x)"
      attempts steals

(* ---------------- sleep-rule twins ---------------- *)

(* The CML, semaphore, bounded-queue and timer pipeline on three
   Sequents that must agree digit for digit: the default machine (idle
   pollers sleep until a wake hint or their timer deadline), the [Checked]
   machine (every poll runs, and each one the sleep rule would skip must
   fail) and the always-suspend oracle ([Reference]).  A fill or
   a timer set that forgot its hint leaves a poller asleep past the poll
   that would have seen it: the default digest moves, and the [Checked]
   machine fails outright. *)
module Twin (C : sig
  val config : Sim.Sim_config.t
end) =
struct
  module M = Sim.Mp_sim.Int (C) ()
  module S = Workloads.Server.Make (M)

  let digest (sched, procs) =
    let cfg = { Workloads.Server.default with requests = 300 } in
    let r = S.run ~procs ~sched cfg in
    Printf.sprintf
      "count=%d sum=%d p50=%d p99=%d elapsed=%.9f qwait=%.9f makespan=%d"
      (Obs.Histogram.count r.Workloads.Server.hist)
      (Obs.Histogram.sum r.hist) r.p50 r.p99 r.elapsed r.queue_wait
      (M.Machine.makespan_cycles ())
end

module Twin_default = Twin (struct
  let config = Sim.Sim_config.sequent ~procs:16 ()
end)

module Twin_debug = Twin (struct
  let config = { (Sim.Sim_config.sequent ~procs:16 ()) with mode = Checked }
end)

module Twin_oracle = Twin (struct
  let config = { (Sim.Sim_config.sequent ~procs:16 ()) with mode = Reference }
end)

let test_sleep_rule_twins () =
  List.iter
    (fun ((sched, procs) as cell) ->
      let tag m =
        Printf.sprintf "%s@%d %s" (Mpthreads.Sched_policy.to_string sched)
          procs m
      in
      let d = Twin_default.digest cell in
      Alcotest.(check string) (tag "debug = default") d (Twin_debug.digest cell);
      Alcotest.(check string)
        (tag "always-suspend = default")
        d (Twin_oracle.digest cell))
    Mpthreads.Sched_policy.[ (Ws, 16); (Distributed, 4) ]

(* ---------------- pure generators ---------------- *)

let test_arrivals_pure_ascending () =
  let cfg = Workloads.Server.default in
  let a = Workloads.Server.arrivals cfg in
  let b = Workloads.Server.arrivals cfg in
  check "length" cfg.Workloads.Server.requests (Array.length a);
  Alcotest.(check bool) "pure" true (a = b);
  Array.iteri
    (fun i t ->
      if i > 0 && t < a.(i - 1) then
        Alcotest.failf "arrivals not ascending at %d" i;
      if not (Float.is_finite t) || t < 0. then
        Alcotest.failf "bad arrival %f at %d" t i)
    a

let test_arrivals_burst_when_rate_unbounded () =
  let cfg = { Workloads.Server.default with rate = infinity } in
  Array.iter
    (fun t -> Alcotest.(check (float 0.)) "burst at 0" 0. t)
    (Workloads.Server.arrivals cfg);
  let cfg0 = { Workloads.Server.default with rate = 0. } in
  Array.iter
    (fun t -> Alcotest.(check (float 0.)) "burst at 0" 0. t)
    (Workloads.Server.arrivals cfg0)

let test_bursty_same_mean_scale () =
  (* the MMPP keeps the same long-run offered load within a factor ~2 of
     Poisson (it alternates rate*f and rate/f) *)
  let n = 20_000 in
  let p = { Workloads.Server.default with requests = n } in
  let b =
    {
      p with
      Workloads.Server.arrival =
        Workloads.Server.Bursty { factor = 4.; p_switch = 0.05 };
    }
  in
  let last cfg =
    let a = Workloads.Server.arrivals cfg in
    a.(n - 1)
  in
  let ratio = last b /. last p in
  if ratio < 0.3 || ratio > 3.0 then
    Alcotest.failf "bursty span off Poisson by %fx" ratio

let test_shard_service_pure_bounded () =
  let cfg = Workloads.Server.default in
  for id = 0 to 999 do
    let s = Workloads.Server.shard_of cfg id in
    if s < 0 || s >= cfg.Workloads.Server.shards then
      Alcotest.failf "shard %d out of range" s;
    let w = Workloads.Server.service_instrs cfg id in
    check "pure service" w (Workloads.Server.service_instrs cfg id);
    if w < 16 then Alcotest.failf "service %d below clamp" w
  done

(* ---------------- histogram properties (qcheck) ---------------- *)

let hist_of values =
  let h = Obs.Histogram.create () in
  List.iter (Obs.Histogram.add h) values;
  h

let value = QCheck.(oneof [ int_bound 100; int_bound 1_000_000_000 ])

let rank values q =
  let n = List.length values in
  max 1 (min n (int_of_float (ceil (q *. float_of_int n))))

(* rank-⌈q·n⌉ order statistic (1-based), the value [quantile] estimates *)
let exact_quantile values q =
  List.nth (List.sort compare values) (rank values q - 1)

(* The bounds of the estimate: below, the lower bound of the first bucket
   whose cumulative count reaches the rank; above, [quantile] itself. *)
let prop_quantile_brackets =
  QCheck.Test.make ~name:"quantile_bounds bracket the exact order statistic"
    ~count:300
    QCheck.(pair (list_of_size Gen.(1 -- 200) value) (float_range 0. 1.))
    (fun (values, q) ->
      let values = List.map abs values in
      let h = hist_of values in
      let r = rank values q in
      let rec bucket_lo acc = function
        | (lo, n) :: rest -> if acc + n >= r then lo else bucket_lo (acc + n) rest
        | [] -> max_int
      in
      let exact = exact_quantile values q in
      bucket_lo 0 (Obs.Histogram.nonzero_buckets h) <= exact
      && exact <= Obs.Histogram.quantile h q)

let prop_quantile_error_bound =
  QCheck.Test.make ~name:"quantile overestimates by at most one bucket width"
    ~count:300
    QCheck.(list_of_size Gen.(1 -- 200) value)
    (fun values ->
      let values = List.map abs values in
      let h = hist_of values in
      List.for_all
        (fun q ->
          let exact = exact_quantile values q in
          let est = Obs.Histogram.quantile h q in
          float_of_int (est - exact)
          <= (float_of_int exact /. float_of_int Obs.Histogram.sub) +. 1.)
        [ 0.5; 0.95; 0.99; 0.999 ])

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "server"
    [
      ( "goldens",
        List.map
          (fun ((sched, procs), expected) ->
            Alcotest.test_case
              (Printf.sprintf "%s@%d"
                 (Mpthreads.Sched_policy.to_string sched)
                 procs)
              `Quick
              (golden_case (sched, procs) expected))
          golden );
      ( "determinism",
        [
          Alcotest.test_case "rerun identical" `Quick test_rerun_identical;
          Alcotest.test_case "sleep rule = debug = always-suspend" `Quick
            test_sleep_rule_twins;
        ] );
      ( "tails",
        [
          Alcotest.test_case "ws p99 < fifo p99 at 16 procs" `Quick
            test_ws_tail_beats_fifo;
        ] );
      ( "host cost",
        [
          Alcotest.test_case "ws@16 suspensions per request" `Quick
            test_ws_suspension_budget;
        ] );
      ( "generators",
        [
          Alcotest.test_case "arrivals pure + ascending" `Quick
            test_arrivals_pure_ascending;
          Alcotest.test_case "unbounded rate = closed burst" `Quick
            test_arrivals_burst_when_rate_unbounded;
          Alcotest.test_case "bursty spans like poisson" `Quick
            test_bursty_same_mean_scale;
          Alcotest.test_case "shard/service pure + bounded" `Quick
            test_shard_service_pure_bounded;
        ] );
      ( "histogram",
        [
          qt prop_quantile_brackets;
          qt prop_quantile_error_bound;
        ] );
    ]
