(* Open-loop server-workload sweep driver (the ROADMAP "millions of users"
   exhibit): a (scheduler × procs) latency-tail grid at a fixed offered
   load plus a per-scheduler saturation ramp at full machine width, both
   fanned out over Job_pool on private machine instances so every rendering
   is byte-identical for any --jobs. *)

type cell = {
  machine : string;
  sched : string;
  procs : int;
  rate : float;
  requests : int;
  completed : int;
  elapsed : float;
  throughput : float;
  p50_ns : int;
  p95_ns : int;
  p99_ns : int;
  p999_ns : int;
  queue_wait : float;
  hist : Obs.Histogram.t;
  suspensions : int;
}

let schedulers = [ "fifo"; "distributed"; "ws" ]
let grid_procs = [ 1; 4; 16 ]

(* Offered loads for the saturation ramp, requests per virtual second at 16
   procs on the Sequent model.  The committed full ramp (BENCH_server.json)
   puts every scheduler's knee at 500 req/s, where throughput levels off
   near 460 req/s, so the list crosses the knee.  What sets that ceiling is
   not yet attributed (ROADMAP.md item 3). *)
let ramp_rates ~quick =
  if quick then [ 150.; 300.; 450.; 700. ]
  else [ 150.; 200.; 250.; 300.; 350.; 400.; 450.; 500.; 600.; 700. ]

let base_config ~quick =
  if quick then { Workloads.Server.default with requests = 600 }
  else Workloads.Server.default

let run_cell ~machine ~config (sched, procs, rate) =
  let module M =
    Sim.Mp_sim.Int (struct
        let config = Sim.Sim_config.of_machine_string_exn ~sched machine
      end)
      ()
  in
  let module S = Workloads.Server.Make (M) in
  let cfg = { config with Workloads.Server.rate } in
  let r =
    S.run ~procs ~sched:(Mpthreads.Sched_policy.of_string_exn sched) cfg
  in
  {
    machine;
    sched;
    procs;
    rate;
    requests = cfg.Workloads.Server.requests;
    completed = r.Workloads.Server.completed;
    elapsed = r.Workloads.Server.elapsed;
    throughput = r.Workloads.Server.throughput;
    p50_ns = r.Workloads.Server.p50;
    p95_ns = r.Workloads.Server.p95;
    p99_ns = r.Workloads.Server.p99;
    p999_ns = r.Workloads.Server.p999;
    queue_wait = r.Workloads.Server.queue_wait;
    hist = r.Workloads.Server.hist;
    suspensions = (M.stats ()).Mp.Stats.suspensions;
  }

let golden_line c =
  Printf.sprintf
    "GOLDEN server sched=%-12s procs=%-2d count=%d sum=%d p50=%d p95=%d \
     p99=%d p999=%d elapsed=%.9f tput=%.3f qwait=%.9f"
    c.sched c.procs (Obs.Histogram.count c.hist) (Obs.Histogram.sum c.hist)
    c.p50_ns c.p95_ns c.p99_ns c.p999_ns c.elapsed c.throughput c.queue_wait

(* A cell runs on at most the machine's procs, so its label says so: the
   SGI's grid reads 1, 4 and 8 procs and its ramp 8. *)
let clamp machine procs =
  min procs (Sim.Sim_config.of_machine_string_exn machine).procs

let grid ?(quick = false) ?(jobs = 1) ?(machine = "sequent") () =
  let config = base_config ~quick in
  let procs = List.sort_uniq compare (List.map (clamp machine) grid_procs) in
  let cells =
    List.concat_map
      (fun sched -> List.map (fun procs -> (sched, procs, config.Workloads.Server.rate)) procs)
      schedulers
  in
  Exec.Job_pool.map ~jobs (run_cell ~machine ~config) cells

let ramp ?(quick = false) ?(jobs = 1) ?(machine = "sequent") () =
  let config = base_config ~quick in
  let procs = clamp machine 16 in
  let cells =
    List.concat_map
      (fun sched -> List.map (fun rate -> (sched, procs, rate)) (ramp_rates ~quick))
      schedulers
  in
  Exec.Job_pool.map ~jobs (run_cell ~machine ~config) cells

(* Saturation knee of one scheduler's ramp: the lowest offered load whose
   p99 exceeds 5x the p99 at the lightest load — i.e. where queueing
   delay, not service time, starts to own the tail. *)
let knee cells ~sched =
  let mine =
    List.filter (fun c -> c.sched = sched) cells
    |> List.sort (fun a b -> compare a.rate b.rate)
  in
  match mine with
  | [] -> None
  | base :: _ ->
      let blowup = 5 * max 1 base.p99_ns in
      List.find_opt (fun c -> c.p99_ns > blowup) mine
      |> Option.map (fun c -> c.rate)

let ms ns = float_of_int ns /. 1e6

let print_server fmt grid_cells ramp_cells =
  Format.fprintf fmt
    "@.== server: open-loop latency tails (machine %s, Poisson arrivals) \
     ==@."
    (match grid_cells with c :: _ -> c.machine | [] -> "?");
  Format.fprintf fmt
    "@[<v>%-12s %5s %8s %9s %9s %9s %9s %9s %8s@," "sched" "procs" "rate/s"
    "tput/s" "p50ms" "p95ms" "p99ms" "p999ms" "qwait_s";
  List.iter
    (fun c ->
      Format.fprintf fmt "%-12s %5d %8.0f %9.1f %9.2f %9.2f %9.2f %9.2f %8.3f@,"
        c.sched c.procs c.rate c.throughput (ms c.p50_ns) (ms c.p95_ns)
        (ms c.p99_ns) (ms c.p999_ns) c.queue_wait)
    grid_cells;
  Format.fprintf fmt "@]@.";
  (match ramp_cells with
  | [] -> ()
  | c0 :: _ ->
      Format.fprintf fmt
        "@.== server: saturation ramp (%d procs; offered load vs p99) ==@."
        c0.procs;
      Format.fprintf fmt "@[<v>%-12s %8s %9s %9s %9s@," "sched" "rate/s"
        "tput/s" "p99ms" "p999ms";
      List.iter
        (fun c ->
          Format.fprintf fmt "%-12s %8.0f %9.1f %9.2f %9.2f@," c.sched c.rate
            c.throughput (ms c.p99_ns) (ms c.p999_ns))
        ramp_cells;
      Format.fprintf fmt "@]@.";
      List.iter
        (fun sched ->
          match knee ramp_cells ~sched with
          | Some r ->
              Format.fprintf fmt "knee %-12s p99 blows up at %.0f req/s@."
                sched r
          | None ->
              Format.fprintf fmt "knee %-12s none within the ramp@." sched)
        schedulers)

(* ---- BENCH_server.json ------------------------------------------------ *)

let cell_json c =
  Printf.sprintf
    "{\"machine\":\"%s\",\"sched\":\"%s\",\"procs\":%d,\"rate\":%.1f,\
     \"requests\":%d,\"completed\":%d,\"elapsed_s\":%.9f,\
     \"throughput\":%.3f,\"p50_ns\":%d,\"p95_ns\":%d,\"p99_ns\":%d,\
     \"p999_ns\":%d,\"mean_ns\":%.1f,\"queue_wait_s\":%.9f,\
     \"suspensions\":%d}"
    c.machine c.sched c.procs c.rate c.requests c.completed c.elapsed
    c.throughput c.p50_ns c.p95_ns c.p99_ns c.p999_ns
    (Obs.Histogram.mean c.hist) c.queue_wait c.suspensions

let to_json ~quick grid_cells ramp_cells =
  let b = Buffer.create 4096 in
  let cfg = base_config ~quick in
  Buffer.add_string b "{\n  \"schema\": \"mp-repro/server/v1\",\n";
  Buffer.add_string b
    (Printf.sprintf
       "  \"config\": {\"requests\": %d, \"arrival\": \"poisson\", \
        \"service\": \"exp\", \"service_mean_instrs\": %d, \"shards\": %d, \
        \"workers_per_shard\": %d, \"queue_cap\": %d, \"seed\": %d},\n"
       cfg.Workloads.Server.requests Workloads.Server.service_mean_instrs
       cfg.Workloads.Server.shards cfg.Workloads.Server.workers_per_shard
       cfg.Workloads.Server.queue_cap cfg.Workloads.Server.seed);
  Buffer.add_string b "  \"cells\": [\n";
  List.iteri
    (fun i c ->
      if i > 0 then Buffer.add_string b ",\n";
      Buffer.add_string b ("    " ^ cell_json c))
    grid_cells;
  Buffer.add_string b "\n  ],\n  \"ramp\": [\n";
  List.iteri
    (fun i c ->
      if i > 0 then Buffer.add_string b ",\n";
      Buffer.add_string b ("    " ^ cell_json c))
    ramp_cells;
  Buffer.add_string b "\n  ],\n  \"knee\": {";
  List.iteri
    (fun i sched ->
      if i > 0 then Buffer.add_string b ", ";
      match knee ramp_cells ~sched with
      | Some r -> Buffer.add_string b (Printf.sprintf "\"%s\": %.1f" sched r)
      | None -> Buffer.add_string b (Printf.sprintf "\"%s\": null" sched))
    schedulers;
  Buffer.add_string b "}\n}\n";
  Buffer.contents b
