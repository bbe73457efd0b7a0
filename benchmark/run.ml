(* The repo benchmark.  From the repo root:

     dune build ./benchmark/run.exe
     ./_build/default/benchmark/run.exe --workload fig6_sim [--seed 1993]
       [--seconds 25] [--trace 0|1]

   Without --workload every workload runs in turn.  The parent runs each
   pass as a separate child process, one at a time, because the platform
   keeps memory outside the OCaml heap that it never returns: a process
   that is reused for every pass measures a bigger and slower program on
   each one.  --smoke runs every workload at toy size and checks the
   output against BENCHMARK.json (the runtest hook).

   The last line of standard output is one JSON object:
   {"correct", "attempted", "failed", "metrics": {name: {value, unit}}} —
   the end-to-end metrics, or with --trace 1 the per-layer ones.  A full
   report goes to _build/benchmark/results.<workload>.json and, with
   --trace 1, spans to _build/benchmark/trace.<workload>.jsonl. *)

let end_to_end =
  [
    ("setup_s", "s");
    ("host_s", "s");
    ("latency_ms", "ms");
    ("speedup", "x");
    ("peak_rss_mb", "MB");
  ]

let per_layer =
  [
    ("engine.callcc_throw_ns", "ns");
    ("engine.suspend_resume_ns", "ns");
    ("engine.rss_kb_per_pass", "KB");
    ("threads.fork_join_ns", "ns");
    ("threads.yield_ns", "ns");
    ("threads.fork_join_cycles", "cycles");
    ("sched.switches", "count");
    ("sched.steals", "count");
    ("sched.steal_hit_ratio", "ratio");
    ("queues.spmc_push_pop_ns", "ns");
    ("queues.bounded_enq_deq_ns", "ns");
    ("server.queue_wait_s", "s");
    ("server.p99_ms_light", "ms");
    ("server.p50_ms_heavy", "ms");
    ("server.p99_ms_heavy", "ms");
    ("server.saturated_rps", "1/s");
    ("lock.lock_unlock_ns", "ns");
    ("lock.lock_unlock_cycles", "cycles");
    ("lock.acquires", "count");
    ("lock.spins_per_acquire", "ratio");
    ("sync.semaphore_ns", "ns");
    ("sync.blocks", "count");
    ("cml.send_recv_ns", "ns");
    ("cml.send_recv_cycles", "cycles");
    ("cml.blocks", "count");
    ("cml.wakeups", "count");
    ("sim.suspensions", "count");
    ("sim.sched_decisions", "count");
    ("sim.heap_ops", "count");
    ("sim.coalesce_ratio", "ratio");
    ("sim.idle_polls", "count");
    ("sim.host_ns_per_decision", "ns");
    ("sim.host_s.p1", "s");
    ("sim.host_s.p16", "s");
    ("gc.pause_cycles", "cycles");
    ("gc.wait_cycles", "cycles");
    ("bus.busy_frac", "ratio");
    ("proc.busy_frac", "ratio");
    ("proc.idle_frac", "ratio");
    ("proc.gc_wait_frac", "ratio");
    ("proc.queue_wait_frac", "ratio");
    ("proc.unaccounted_frac", "ratio");
    ("trace.overhead_frac", "ratio");
    ("trace.events", "count");
  ]

let out_dir = Filename.concat "_build" "benchmark"

let ensure_out_dir () =
  List.iter
    (fun d -> try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ())
    [ "_build"; out_dir ]

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("run.exe: " ^ s); exit 2) fmt

(* ---- child side ------------------------------------------------------- *)

let print_line j =
  print_string (Json.to_string j);
  print_newline ()

let child_pass ~workload ~pass ~seed ~smoke ~traced ~spans =
  let f =
    match List.assoc_opt workload Passes.workloads with
    | Some f -> f
    | None -> fail "unknown workload %s" workload
  in
  if traced then Spans.enable ();
  let close_pass = Spans.open_span ~group:workload "pass" in
  let l = Ledger.create () in
  let size = if smoke then Passes.smoke else Passes.full in
  f l ~seed ~size ~traced;
  Ledger.finish_layers l;
  close_pass ();
  Option.iter (fun path -> Spans.write ~path ~pass) spans;
  print_line (Ledger.to_json l)

let child_probes ~workload ~seed ~smoke ~spans =
  Spans.enable ();
  let close_pass = Spans.open_span ~group:workload "pass" in
  let l = Ledger.create () in
  List.iter (fun (k, v) -> Ledger.set l k v) (Probes.run ~smoke);
  if workload = "server_sim" then begin
    let size = if smoke then Passes.smoke else Passes.full in
    let cap =
      Spans.with_span ~group:"capacity" "cell" (fun () ->
          Passes.server_sim_capacity l ~seed ~size)
    in
    Ledger.diag l "capacity_rps" (Json.Num cap)
  end;
  close_pass ();
  Option.iter (fun path -> Spans.write ~path ~pass:(-1)) spans;
  print_line (Ledger.to_json l)

(* ---- parent side ------------------------------------------------------ *)

type pass_result = { json : Json.t; spawned : float }

(* A hung child is killed well inside the 180 s a whole run may take. *)
let child_timeout_s = 120.

(* Run one child to completion and parse the last line it printed. *)
let spawn args =
  let argv = Array.of_list (Sys.executable_name :: args) in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let spawned = Unix.gettimeofday () in
  let pid = Unix.create_process Sys.executable_name argv Unix.stdin wr Unix.stderr in
  Unix.close wr;
  let buf = Buffer.create 4096 and chunk = Bytes.create 4096 in
  let rec drain () =
    let left = spawned +. child_timeout_s -. Unix.gettimeofday () in
    if left <= 0. then begin
      Unix.kill pid Sys.sigkill;
      ignore (Unix.waitpid [] pid);
      Unix.close rd;
      fail "child %s timed out" (String.concat " " args)
    end;
    match Unix.select [ rd ] [] [] left with
    | [], _, _ -> drain ()
    | _ -> (
        match Unix.read rd chunk 0 (Bytes.length chunk) with
        | 0 -> ()
        | n ->
            Buffer.add_subbytes buf chunk 0 n;
            drain ())
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> drain ()
  in
  drain ();
  Unix.close rd;
  (match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _ -> fail "child %s failed" (String.concat " " args));
  let lines =
    String.split_on_char '\n' (Buffer.contents buf) |> List.filter (( <> ) "")
  in
  match List.rev lines with
  | last :: _ -> { json = Json.of_string last; spawned }
  | [] -> fail "child %s printed nothing" (String.concat " " args)

let num j k = Json.to_float (Json.member k j)
let int_of j k = int_of_float (num j k)

let samples_of results name =
  List.concat_map
    (fun r -> List.map Json.to_float (Json.to_list (Json.member name (Json.member "samples" r.json))))
    results

type summary = { median : float; q1 : float; q3 : float; tail : (string * float) option; n : int }

let summarize xs =
  let n = List.length xs in
  {
    median = Stat.median xs;
    q1 = Stat.quantile xs 0.25;
    q3 = Stat.quantile xs 0.75;
    tail = Option.map (fun (label, q) -> (label, Stat.quantile xs q)) (Stat.tail_quantile n);
    n;
  }

let summary_json unit s =
  Json.Obj
    ([
       ("value", Json.Num s.median);
       ("unit", Json.Str unit);
       ("q1", Json.Num s.q1);
       ("q3", Json.Num s.q3);
       ("n", Json.Num (float_of_int s.n));
     ]
    @ match s.tail with Some (label, v) -> [ (label, Json.Num v) ] | None -> [])

let print_summary name unit s =
  Printf.printf "  %-28s %12.6g %-6s  q1 %-11.6g q3 %-11.6g %s n=%d\n" name s.median unit
    s.q1 s.q3
    (match s.tail with Some (label, v) -> Printf.sprintf "%s %-11.6g" label v | None -> "")
    s.n

let pass_args ~workload ~i ~seed ~smoke ~traced ~spans =
  [ "--pass"; workload; string_of_int i; "--seed"; string_of_int seed ]
  @ (if smoke then [ "--smoke" ] else [])
  @ (if traced then [ "--traced" ] else [])
  @ match spans with Some p -> [ "--spans"; p ] | None -> []

type outcome = {
  attempted : int;
  failed : int;
  errors : string list;
  metrics : (string * (string * summary)) list;
  runs : pass_result list;  (** the passes the metrics were measured on *)
  report : Json.t;
}

let tally results =
  let sum k = List.fold_left (fun acc r -> acc + int_of r.json k) 0 results in
  ( sum "attempted",
    sum "failed",
    List.concat_map (fun r -> List.map Json.to_str (Json.to_list (Json.member "errors" r.json))) results )

(* Host times are reported at reference speed: scaled by [reference_s]
   over the median time of the reference kernel in the same run (see
   {!Ledger.reference_kernel}), so a host that slows down between runs
   does not read as a regression.  [reference_s] is the kernel's time on
   the 2-core host the bounds were set on. *)
let reference_s = 0.02

let reference_scale results = reference_s /. Stat.median (samples_of results "reference_s")

(* Run [f 0], [f 1], ... one after another until the next would end after
   [seconds] have passed, assuming it takes as long as the last; at least
   [min] of them. *)
let repeat_for ~seconds ~min f =
  let deadline = Unix.gettimeofday () +. seconds in
  let rec go i acc =
    let t0 = Unix.gettimeofday () in
    let acc = f i :: acc in
    let t1 = Unix.gettimeofday () in
    if i + 1 >= min && t1 +. (t1 -. t0) > deadline then List.rev acc else go (i + 1) acc
  in
  go 0 []

let min_passes = 3

(* The untraced run: end-to-end metrics over fresh children, one a pass. *)
let untraced ~workload ~seed ~seconds ~smoke =
  let results =
    repeat_for ~seconds ~min:(if smoke then 1 else min_passes) (fun i ->
        spawn (pass_args ~workload ~i ~seed ~smoke ~traced:false ~spans:None))
  in
  let scale = reference_scale results in
  let scaled xs = List.map (fun x -> x *. scale) xs in
  let pooled =
    [
      ("setup_s", scaled (List.map (fun r -> num r.json "ready" -. r.spawned) results));
      ("host_s", scaled (samples_of results "host_s"));
      ( "latency_ms",
        samples_of results "latency_ms" @ scaled (samples_of results "latency_host_ms") );
      ("speedup", samples_of results "speedup");
      ("peak_rss_mb", List.map (fun r -> num r.json "peak_rss_kb" /. 1024.) results);
    ]
  in
  let metrics = List.map (fun (m, unit) -> (m, (unit, summarize (List.assoc m pooled)))) end_to_end in
  let attempted, failed, errors = tally results in
  {
    attempted;
    failed;
    errors;
    metrics;
    runs = results;
    report =
      Json.Obj
        [
          ("reference_scale", Json.Num scale);
          ("passes", Json.Arr (List.map (fun r -> r.json) results));
        ];
  }

(* The traced run: the ledger probes in their own child, then pairs of an
   untraced and a traced pass.  Per-layer values come from the untraced
   passes; the traced ones give the event counts and the tracing overhead. *)
let traced ~workload ~seed ~seconds ~smoke =
  let start = Unix.gettimeofday () in
  let spans =
    if smoke then None
    else begin
      ensure_out_dir ();
      let p = Filename.concat out_dir ("trace." ^ workload ^ ".jsonl") in
      if Sys.file_exists p then Sys.remove p;
      Some p
    end
  in
  let probes =
    spawn
      ([ "--probes"; workload; "--seed"; string_of_int seed ]
      @ (if smoke then [ "--smoke" ] else [])
      @ match spans with Some p -> [ "--spans"; p ] | None -> [])
  in
  let plain, traced =
    List.split
      (repeat_for
         ~seconds:(seconds -. (Unix.gettimeofday () -. start))
         ~min:1
         (fun i ->
           let a = spawn (pass_args ~workload ~i ~seed ~smoke ~traced:false ~spans:None) in
           let b = spawn (pass_args ~workload ~i ~seed ~smoke ~traced:true ~spans) in
           (a, b)))
  in
  (* a layer a workload does not exercise reads 0 *)
  let layer_of r name =
    match Json.member name (Json.member "layer" r.json) with Json.Num f -> f | _ -> 0.
  in
  let host rs = Stat.median (samples_of rs "host_s") *. reference_scale rs in
  let samples name =
    match name with
    | "trace.overhead_frac" -> [ (host traced /. host plain) -. 1. ]
    | "trace.events" -> List.map (fun r -> num r.json "events" /. num r.json "units") traced
    | _ when Json.member name (Json.member "layer" probes.json) <> Json.Null ->
        [ layer_of probes name ]
    | _ -> List.map (fun r -> layer_of r name) plain
  in
  let metrics = List.map (fun (m, unit) -> (m, (unit, summarize (samples m)))) per_layer in
  let attempted, failed, errors = tally (probes :: plain @ traced) in
  {
    attempted;
    failed;
    errors;
    metrics;
    runs = traced;
    report =
      Json.Obj
        [
          ("probes", probes.json);
          ("passes", Json.Arr (List.map (fun r -> r.json) plain));
          ("traced_passes", Json.Arr (List.map (fun r -> r.json) traced));
        ];
  }

let result_line ~attempted ~failed metrics =
  Json.Obj
    [
      ("correct", Json.Bool (failed = 0));
      ("attempted", Json.Num (float_of_int attempted));
      ("failed", Json.Num (float_of_int failed));
      ( "metrics",
        Json.Obj
          (List.map
             (fun (m, (unit, s)) ->
               (m, Json.Obj [ ("value", Json.Num s.median); ("unit", Json.Str unit) ]))
             metrics) );
    ]

let run_workload ~workload ~seed ~seconds ~trace =
  if not (List.mem_assoc workload Passes.workloads) then
    fail "unknown workload %s (one of %s)" workload
      (String.concat ", " (List.map fst Passes.workloads));
  let seconds = float_of_int seconds in
  let o = (if trace then traced else untraced) ~workload ~seed ~seconds ~smoke:false in
  Printf.printf "%s (seed %d%s): %d checked, %d failed\n" workload seed
    (if trace then ", traced" else "") o.attempted o.failed;
  List.iter (fun e -> Printf.printf "  FAILED: %s\n" e) o.errors;
  List.iter
    (fun (m, (unit, s)) ->
      if trace then Printf.printf "  %-28s %14.6g %s\n" m s.median unit
      else print_summary m unit s)
    o.metrics;
  ensure_out_dir ();
  let path =
    Filename.concat out_dir
      (Printf.sprintf "results.%s%s.json" workload (if trace then ".trace" else ""))
  in
  let oc = open_out path in
  output_string oc
    (Json.to_string
       (Json.Obj
          [
            ("workload", Json.Str workload);
            ("seed", Json.Num (float_of_int seed));
            ("traced", Json.Bool trace);
            ( "metrics",
              Json.Obj (List.map (fun (m, (unit, s)) -> (m, summary_json unit s)) o.metrics) );
            ("errors", Json.Arr (List.map (fun e -> Json.Str e) o.errors));
            ("detail", o.report);
          ]));
  output_char oc '\n';
  close_out oc;
  o

(* ---- smoke test ------------------------------------------------------- *)

(* Every workload at toy size: witnesses, every metric of BENCHMARK.json
   emitted with its unit, and the simulator's virtual metrics identical
   across two passes. *)
let smoke ~spec =
  let spec = Json.of_string (In_channel.with_open_bin spec In_channel.input_all) in
  let names key =
    List.map
      (fun m -> (Json.to_str (Json.member "name" m), Json.to_str (Json.member "unit" m)))
      (Json.to_list (Json.member key spec))
  in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let same_metrics key emitted =
    let declared = List.sort compare (names key) and got = List.sort compare emitted in
    if declared <> got then problem "%s in BENCHMARK.json differ from the metrics emitted" key
  in
  let workloads = List.map (fun w -> Json.to_str (Json.member "name" w)) (Json.to_list (Json.member "workloads" spec)) in
  if List.sort compare workloads <> List.sort compare (List.map fst Passes.workloads) then
    problem "workloads in BENCHMARK.json differ from the benchmark's";
  List.iter
    (fun (workload, _) ->
      let seed = 1993 in
      let o = untraced ~workload ~seed ~seconds:0. ~smoke:true in
      let t = traced ~workload ~seed ~seconds:0. ~smoke:true in
      List.iter (fun e -> problem "%s: %s" workload e) (o.errors @ t.errors);
      if o.failed + t.failed > 0 then problem "%s: witness failures" workload;
      same_metrics "end_to_end" (List.map (fun (m, (u, _)) -> (m, u)) o.metrics);
      same_metrics "per_layer" (List.map (fun (m, (u, _)) -> (m, u)) t.metrics);
      List.iter
        (fun (m, (_, s)) ->
          if not (Float.is_finite s.median && s.median > 0.) then
            problem "%s: end-to-end %s reads %g" workload m s.median)
        o.metrics;
      List.iter
        (fun (m, (_, s)) ->
          if not (Float.is_finite s.median) then problem "%s: %s reads %g" workload m s.median)
        t.metrics;
      (* the untraced pass and the traced one must agree on virtual time *)
      if String.ends_with ~suffix:"_sim" workload then
        List.iter
          (fun m ->
            if samples_of o.runs m <> samples_of t.runs m then
              problem "%s: virtual %s differs between passes" workload m)
          [ "speedup"; "latency_ms" ];
      Printf.printf "smoke %-18s ok=%b checked=%d\n%!" workload (o.failed + t.failed = 0)
        (o.attempted + t.attempted))
    Passes.workloads;
  match !problems with
  | [] -> print_endline "smoke ok"
  | ps ->
      List.iter (fun p -> prerr_endline ("smoke: " ^ p)) (List.rev ps);
      exit 1

(* ---- command line ----------------------------------------------------- *)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec opt k = function
    | x :: v :: _ when x = k -> Some v
    | _ :: r -> opt k r
    | [] -> None
  in
  let flag k = List.mem k args in
  let int_opt k d =
    match opt k args with
    | None -> d
    | Some v -> ( match int_of_string_opt v with Some n -> n | None -> fail "%s expects an integer" k)
  in
  let seed = int_opt "--seed" 1993 in
  let smoke_size = flag "--smoke" in
  let spans = opt "--spans" args in
  match args with
  | "--pass" :: workload :: i :: _ ->
      child_pass ~workload ~pass:(int_of_string i) ~seed ~smoke:smoke_size ~traced:(flag "--traced") ~spans
  | "--probes" :: workload :: _ -> child_probes ~workload ~seed ~smoke:smoke_size ~spans
  | _ when smoke_size -> smoke ~spec:(Option.value (opt "--spec" args) ~default:"BENCHMARK.json")
  | _ ->
      let seconds = int_opt "--seconds" 25 in
      if seconds < 1 then fail "--seconds must be positive";
      let trace =
        match opt "--trace" args with
        | None | Some "0" -> false
        | Some "1" -> true
        | Some v -> fail "--trace expects 0 or 1, not %s" v
      in
      let workloads =
        match opt "--workload" args with
        | None | Some "all" -> List.map fst Passes.workloads
        | Some w -> [ w ]
      in
      let outcomes =
        List.map (fun workload -> (workload, run_workload ~workload ~seed ~seconds ~trace)) workloads
      in
      (* with several workloads, metric names are prefixed by the workload *)
      let metrics =
        match outcomes with
        | [ (_, o) ] -> o.metrics
        | _ ->
            List.concat_map
              (fun (w, o) -> List.map (fun (m, v) -> (w ^ "." ^ m, v)) o.metrics)
              outcomes
      in
      let total f = List.fold_left (fun acc (_, o) -> acc + f o) 0 outcomes in
      let failed = total (fun o -> o.failed) in
      print_line (result_line ~attempted:(total (fun o -> o.attempted)) ~failed metrics);
      if failed > 0 then exit 1
