(* The four workloads.  A pass builds its platform, computes the sequential
   references its witnesses are checked against, runs one untimed warm-up,
   then its timed work, filling a {!Ledger.t}.  Between units of timed
   work it times the reference kernel ({!Ledger.reference_kernel}).

   Load stays within two host threads: the simulator runs on one domain,
   and the domains workloads acquire at most two procs.

   End-to-end samples a pass contributes: [host_s] (host seconds per unit
   of work), [latency_ms] (virtual, on the simulator) or [latency_host_ms]
   (host, on real procs) and [speedup]. *)

type size = {
  fig6_iterations : int;
  sim_requests : int;  (** requests per server_sim cell *)
  dom_cell_s : float;  (** seconds of offered load in a domains cell *)
  dom_burst : int;  (** requests in each domains burst cell *)
  fib_n : int;
  fib_pairs : int;  (** timed (2-proc, 1-proc) fib runs per pass *)
}

let full =
  {
    fig6_iterations = 20;
    sim_requests = 2000;
    dom_cell_s = 0.5;
    dom_burst = 10_000;
    fib_n = 28;
    fib_pairs = 5;
  }

(* Toy sizes for the smoke test: every code path, a fraction of a second. *)
let smoke =
  {
    fig6_iterations = 1;
    sim_requests = 100;
    dom_cell_s = 0.05;
    dom_burst = 500;
    fib_n = 18;
    fib_pairs = 1;
  }

let now = Unix.gettimeofday
let ms_of_ns ns = ns /. 1e6

(* fib computed directly, for the fork-join witnesses. *)
let fib_ref n =
  let rec go a b k = if k = 0 then a else go b (a + b) (k - 1) in
  go 0 1 n

(* ---- fig6_sim --------------------------------------------------------- *)

(* The five Figure-6 applications plus seq and fib, each at 1 and 16 procs
   on the simulated Sequent (distributed run queue, stop-the-world GC).
   The default seed maps to the applications' own default input seed, so
   the default run reproduces the committed BENCH_sim.json makespans. *)
let fig6_apps = [ "allpairs"; "mst"; "abisort"; "simple"; "mm"; "seq"; "fib" ]
let fig6_speedup_apps = [ "allpairs"; "mst"; "abisort"; "simple"; "mm" ]
let fig6_input_seed seed = seed - 1993 + 42

let fig6_references s =
  let abisort =
    let rng = Random.State.make [| s; 4096 |] in
    let a = Array.init 4096 (fun _ -> Random.State.int rng 1_000_000) in
    Array.sort compare a;
    Array.fold_left (fun acc x -> (acc * 31) + x) 7 a
  in
  let simple =
    let t = Workloads.Hydro.create ~n:100 ~seed:s in
    ignore (Workloads.Hydro.step_seq t);
    Workloads.Hydro.checksum t
  in
  [
    ( "allpairs",
      Workloads.Graph.(checksum (floyd_warshall (random ~n:75 ~seed:s ()))) );
    ("mst", Workloads.Euclid.(prim_mst (random_points ~n:200 ~seed:s)));
    ("abisort", abisort);
    ("simple", simple);
    ( "mm",
      Workloads.Matrix.(
        checksum (multiply (random ~n:100 ~seed:s) (random ~n:100 ~seed:(s + 1)))) );
    ("fib", fib_ref 24);
  ]

let fig6 l ~seed ~size ~traced =
  let module P =
    Sim.Mp_sim.Int
      (struct
        let config = Sim.Sim_config.sequent ~procs:16 ()
      end)
      ()
  in
  let module B = Workloads.Bench_suite.Make (P) in
  let module C = Ledger.Cells (P) in
  if traced then C.trace ();
  let s = fig6_input_seed seed in
  let refs = Spans.with_span "setup" (fun () -> fig6_references s) in
  let run app procs =
    match app with
    | "allpairs" -> B.allpairs ~procs ~seed:s ()
    | "mst" -> B.mst ~procs ~seed:s ()
    | "abisort" -> B.abisort ~procs ~seed:s ()
    | "simple" -> B.simple ~procs ~seed:s ()
    | "mm" -> B.mm ~procs ~seed:s ()
    | "seq" -> B.seq ~procs ()
    | _ -> B.fib ~procs ()
  in
  (* one suite iteration: (app, procs, makespan cycles) per cell *)
  let iteration () =
    List.concat_map
      (fun app ->
        List.map
          (fun procs ->
            let group = Printf.sprintf "%s@%d" app procs in
            let w, _ = C.run l ~group ~procs (fun () -> run app procs) in
            let expected =
              match List.assoc_opt app refs with Some r -> r | None -> procs
            in
            Ledger.check l (w = expected)
              (Printf.sprintf "%s witness %d <> %d" group w expected);
            (app, procs, P.Machine.makespan_cycles ()))
          [ 1; 16 ])
      fig6_apps
  in
  let first = Spans.with_span "warmup" iteration in
  Ledger.mark_ready l;
  for _ = 1 to size.fig6_iterations do
    let t0 = now () in
    let cells = iteration () in
    Ledger.sample l "host_s" (now () -. t0);
    l.units <- l.units + 1;
    (* the simulator is deterministic: every iteration repeats the first *)
    Ledger.check l (cells = first) "fig6 virtual makespans differ between iterations";
    C.reference l
  done;
  let makespan app procs =
    List.find_map (fun (a, p, c) -> if a = app && p = procs then Some c else None) first
    |> Option.get
  in
  let ms c = 1e3 *. Sim.Sim_config.cycles_to_seconds P.Machine.config c in
  Ledger.sample l "speedup"
    (Stat.geomean
       (List.map
          (fun a -> float_of_int (makespan a 1) /. float_of_int (makespan a 16))
          fig6_speedup_apps));
  Ledger.sample l "latency_ms"
    (Stat.geomean (List.map (fun a -> ms (makespan a 16)) fig6_speedup_apps));
  List.iter
    (fun (app, procs, c) ->
      Ledger.diag l (Printf.sprintf "%s@%d.makespan_ms" app procs) (Json.Num (ms c)))
    first

(* ---- server_sim and server_domains ------------------------------------ *)

(* The CML/semaphore/bounded-queue request pipeline of [Workloads.Server]
   under the work-stealing scheduler.  A pass runs a light and a heavy
   open-loop cell, then closed bursts (every request due at t = 0) on every
   proc and on one proc: the bursts give the saturated throughput and the
   self-relative speedup.  Latency is timed from each request's intended
   arrival, so any lateness of the request generator is inside it.  The
   end-to-end latency is the light cell's p50: near the knee (the heavy
   cell) the p50 of one seed's arrivals swings by 3x between seeds. *)
module Server_pass (P : Mp.Mp_intf.PLATFORM_INT) = struct
  module S = Workloads.Server.Make (P)
  module C = Ledger.Cells (P)

  let policy = Mpthreads.Sched_policy.of_string_exn "ws"

  let cell l ~seed ~name ~procs ~rate ~requests =
    let cfg = { Workloads.Server.default with seed; rate; requests } in
    let r, host =
      C.run l ~group:name ~procs (fun () -> S.run ~procs ~sched:policy cfg)
    in
    let counted = Obs.Histogram.count r.Workloads.Server.hist in
    Ledger.check l
      (r.completed = requests && counted = requests)
      (Printf.sprintf "%s: completed %d, histogram %d, requests %d" name
         r.completed counted requests);
    Ledger.add l "server.queue_wait_s" r.queue_wait;
    let p50 = ms_of_ns (Stat.hist_quantile r.hist 0.5) in
    let p99 = ms_of_ns (Stat.hist_quantile r.hist 0.99) in
    Ledger.diag l name
      (Json.Obj
         [
           ("procs", Json.Num (float_of_int procs));
           ("rate", if Float.is_finite rate then Json.Num rate else Json.Null);
           ("requests", Json.Num (float_of_int requests));
           ("throughput", Json.Num r.throughput);
           ("p50_ms", Json.Num p50);
           ("p99_ms", Json.Num p99);
           ("p50_ns_bucket", Json.Num (float_of_int r.p50));
           ("p99_ns_bucket", Json.Num (float_of_int r.p99));
           ("queue_wait_s", Json.Num r.queue_wait);
           ("host_s", Json.Num host);
         ]);
    C.reference l;
    (r, p50, p99, host)

  (* [light] and [heavy] are (rate, requests).  [host_s] counts the cells
     whose duration is set by work: all of them on the simulator, where
     arrival times are virtual; only the bursts on real procs, where an
     open-loop cell lasts as long as its arrival schedule.  [rounds] bursts
     alternate between every proc and one proc, so drift within a pass hits
     both sides of the speedup. *)
  let pass l ~seed ~traced ~procs ~light ~heavy ~burst ~rounds =
    if traced then C.trace ();
    let cell = cell l ~seed in
    (* a burst, so the warm-up's length is set by work, not by a schedule *)
    Spans.with_span "warmup" (fun () ->
        ignore (cell ~name:"warmup" ~procs ~rate:infinity ~requests:(snd light / 10)));
    Ledger.mark_ready l;
    let _, p50_light, p99_light, h_light =
      cell ~name:"light" ~procs ~rate:(fst light) ~requests:(snd light)
    in
    let _, p50_heavy, p99_heavy, h_heavy =
      cell ~name:"heavy" ~procs ~rate:(fst heavy) ~requests:(snd heavy)
    in
    let burst procs name =
      let r, _, _, h = cell ~name ~procs ~rate:infinity ~requests:burst in
      (r.Workloads.Server.throughput, h)
    in
    let all, one =
      List.split
        (List.init rounds (fun i ->
             let a = burst procs (Printf.sprintf "burst.%d" i) in
             (a, burst 1 (Printf.sprintf "burst1.%d" i))))
    in
    let sum f xs = List.fold_left (fun acc x -> acc +. f x) 0. xs in
    l.units <- 1;
    Ledger.sample l "host_s"
      (sum snd all +. sum snd one +. if C.on_sim then h_light +. h_heavy else 0.);
    Ledger.sample l (if C.on_sim then "latency_ms" else "latency_host_ms") p50_light;
    Ledger.sample l "speedup" (sum fst all /. sum fst one);
    List.iter
      (fun (k, v) -> Ledger.set l k v)
      [
        ("server.p99_ms_light", p99_light);
        ("server.p50_ms_heavy", p50_heavy);
        ("server.p99_ms_heavy", p99_heavy);
        ("server.saturated_rps", sum fst all /. float_of_int rounds);
      ]

  (* Highest offered rate, scanning up from 200 req/s in steps of 25, that
     the pipeline serves with p99 <= 200 ms and throughput >= 0.95 x
     offered. *)
  let capacity l ~seed ~requests =
    let rec scan rate best =
      let r, _, p99, _ =
        cell l ~seed ~name:(Printf.sprintf "scan@%.0f" rate) ~procs:16 ~rate ~requests
      in
      if p99 <= 200. && r.Workloads.Server.throughput >= 0.95 *. rate then
        scan (rate +. 25.) rate
      else best
    in
    scan 200. 0.
end

let sequent_ws () = Sim.Sim_config.sequent ~procs:16 ~sched:"ws" ()

let server_sim l ~seed ~size ~traced =
  let module P =
    Sim.Mp_sim.Int
      (struct
        let config = sequent_ws ()
      end)
      ()
  in
  let module X = Server_pass (P) in
  (* twice the requests in the light cell, whose p50 is the end-to-end
     latency: it halves that p50's spread between seeds *)
  let n = size.sim_requests in
  X.pass l ~seed ~traced ~procs:16 ~light:(250., 2 * n) ~heavy:(450., n) ~burst:n ~rounds:1

let server_sim_capacity l ~seed ~size =
  let module P =
    Sim.Mp_sim.Int
      (struct
        let config = sequent_ws ()
      end)
      ()
  in
  let module X = Server_pass (P) in
  X.capacity l ~seed ~requests:size.sim_requests

let server_domains l ~seed ~size ~traced =
  let module P =
    Mp.Mp_domains.Int
      (struct
        let max_procs = 2
      end)
      ()
  in
  let module X = Server_pass (P) in
  let cell rate secs = (rate, int_of_float (rate *. secs)) in
  X.pass l ~seed ~traced ~procs:2 ~light:(cell 20_000. size.dom_cell_s)
    ~heavy:(cell 60_000. size.dom_cell_s) ~burst:size.dom_burst ~rounds:2

(* ---- forkjoin_domains ------------------------------------------------- *)

(* Unbalanced divide-and-conquer fib with a sequential cutoff on two real
   procs and on one, work-stealing scheduler: fine-grained fork, steal and
   join with no CML, so a CML change must leave it unchanged.  Runs
   alternate between 2 procs and 1 so drift within a pass hits both.  fib
   has no input to draw, so the seed goes unused. *)
let forkjoin l ~seed:_ ~size ~traced =
  let module P =
    Mp.Mp_domains.Int
      (struct
        let max_procs = 2
      end)
      ()
  in
  let module B = Workloads.Bench_suite.Make (P) in
  let module C = Ledger.Cells (P) in
  if traced then C.trace ();
  let policy = Mpthreads.Sched_policy.of_string_exn "ws" in
  let n = size.fib_n in
  let expected = fib_ref n in
  let run procs =
    P.reset_stats ();
    let group = Printf.sprintf "fib%d@%d" n procs in
    let v, host =
      C.run l ~group ~procs (fun () -> B.fib ~procs ~sched:policy ~n ~cutoff:8 ())
    in
    Ledger.check l (v = expected) (Printf.sprintf "%s = %d <> %d" group v expected);
    host
  in
  Spans.with_span "warmup" (fun () -> ignore (run 2));
  Ledger.mark_ready l;
  let on2 = ref [] and on1 = ref [] in
  for _ = 1 to size.fib_pairs do
    let h2 = run 2 in
    Ledger.sample l "host_s" h2;
    Ledger.sample l "latency_host_ms" (1e3 *. h2);
    on2 := h2 :: !on2;
    on1 := run 1 :: !on1;
    l.units <- l.units + 2;
    C.reference l
  done;
  Ledger.sample l "speedup" (Stat.median !on1 /. Stat.median !on2)

let workloads =
  [
    ("fig6_sim", fig6);
    ("server_sim", server_sim);
    ("server_domains", server_domains);
    ("forkjoin_domains", forkjoin);
  ]
