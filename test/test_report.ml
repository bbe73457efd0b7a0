(* Reporting/harness pieces: renderers, the LoC inventory, the analytic
   model, a reduced experiment sweep with verified results, tracing, and
   the host job pool. *)

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let render_to_string f =
  let buf = Buffer.create 256 in
  let fmt = Format.formatter_of_buffer buf in
  f fmt;
  Format.pp_print_flush fmt ();
  Buffer.contents buf

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  ln = 0 || go 0

(* ---------------- render ---------------- *)

let test_table_alignment () =
  let out =
    render_to_string (fun fmt ->
        Report.Render.table fmt ~header:[ "a"; "bb" ]
          ~rows:[ [ "xxx"; "y" ]; [ "z"; "wwww" ] ])
  in
  checkb "header present" true (contains out "a    bb");
  checkb "rule present" true (contains out "---");
  checkb "rows present" true (contains out "xxx" && contains out "wwww")

let test_series () =
  let out =
    render_to_string (fun fmt ->
        Report.Render.series fmt ~xlabel:"s" ~xs:[ 1; 2 ]
          ~rows:[ ("bench", [ 1.0; 2.5 ]) ])
  in
  checkb "values formatted" true (contains out "1.00" && contains out "2.50")

let test_chart_has_legend () =
  let out =
    render_to_string (fun fmt ->
        Report.Render.chart fmt ~xs:[ 1; 2; 4 ]
          ~rows:[ ("one", [ 1.; 2.; 4. ]); ("two", [ 1.; 1.5; 2. ]) ])
  in
  checkb "legend" true (contains out "A = one" && contains out "B = two")

let test_section () =
  let out = render_to_string (fun fmt -> Report.Render.section fmt "Title") in
  checkb "banner" true (contains out "==  Title  ==")

let test_table_empty_rows () =
  let out =
    render_to_string (fun fmt -> Report.Render.table fmt ~header:[ "h" ] ~rows:[])
  in
  checkb "header still printed" true (contains out "h")

let test_chart_scales_to_max () =
  let out =
    render_to_string (fun fmt ->
        Report.Render.chart fmt ~xs:[ 1; 16 ] ~rows:[ ("s", [ 1.0; 12.5 ]) ])
  in
  checkb "y axis reaches the max value" true (contains out "12.5")

(* ---------------- stats ---------------- *)

let test_stats_zero () =
  let t = Mp.Stats.zero ~platform:"x" ~procs:3 in
  check "procs" 3 (Array.length t.Mp.Stats.per_proc);
  Alcotest.(check (float 0.)) "idle fraction of empty" 0. (Mp.Stats.idle_fraction t);
  Alcotest.(check (float 0.)) "bus util of empty" 0. (Mp.Stats.bus_utilization t)

let test_stats_fractions () =
  let t = Mp.Stats.zero ~platform:"x" ~procs:2 in
  t.Mp.Stats.per_proc.(0).Mp.Stats.busy <- 3.;
  t.Mp.Stats.per_proc.(0).Mp.Stats.idle <- 1.;
  t.Mp.Stats.per_proc.(1).Mp.Stats.busy <- 2.;
  t.Mp.Stats.per_proc.(1).Mp.Stats.idle <- 2.;
  Alcotest.(check (float 1e-9)) "idle = (1+2)/(3+1+2+2)" (3. /. 8.)
    (Mp.Stats.idle_fraction t);
  t.Mp.Stats.per_proc.(0).Mp.Stats.lock_spins <- 5;
  t.Mp.Stats.per_proc.(1).Mp.Stats.lock_spins <- 7;
  check "spins total" 12 (Mp.Stats.total_lock_spins t);
  t.Mp.Stats.per_proc.(0).Mp.Stats.alloc_words <- 10;
  check "alloc total" 10 (Mp.Stats.total_alloc_words t)

let test_stats_pp () =
  let t = Mp.Stats.zero ~platform:"plat" ~procs:1 in
  let out = render_to_string (fun fmt -> Mp.Stats.pp fmt t) in
  checkb "platform named" true (contains out "plat")

(* ---------------- loc_count ---------------- *)

let test_loc_finds_root () =
  match Report.Loc_count.find_root () with
  | None -> Alcotest.fail "project root not found"
  | Some root ->
      checkb "has dune-project" true
        (Sys.file_exists (Filename.concat root "dune-project"))

let test_loc_scan () =
  match Report.Loc_count.find_root () with
  | None -> Alcotest.fail "project root not found"
  | Some root ->
      let entries = Report.Loc_count.scan ~root in
      checkb "nonempty" true (entries <> []);
      let total =
        List.fold_left (fun a e -> a + e.Report.Loc_count.lines) 0 entries
      in
      checkb "substantial codebase" true (total > 3_000);
      let kinds = List.map (fun e -> e.Report.Loc_count.kind) entries in
      checkb "has system-dependent parts" true
        (List.mem "system-dependent" kinds);
      checkb "has generic parts" true (List.mem "generic" kinds)

(* E2 as EXPERIMENTS.md and README quote it must be what [scan] counts,
   so a change to lib/'s size updates both docs in the same diff.  The
   docs group thousands with a space and wrap lines anywhere. *)
let test_loc_docs_quote_scan () =
  match Report.Loc_count.find_root () with
  | None -> Alcotest.fail "project root not found"
  | Some root ->
      let entries = Report.Loc_count.scan ~root in
      let sum p =
        List.fold_left
          (fun a e -> if p e then a + e.Report.Loc_count.lines else a)
          0 entries
      in
      let n x =
        if x < 1000 then string_of_int x
        else Printf.sprintf "%d %03d" (x / 1000) (x mod 1000)
      in
      let row c = n (sum (fun e -> e.Report.Loc_count.component = c)) in
      let uni = row "backend: uniprocessor"
      and dom = row "backend: domains (kernel threads)"
      and sim = row "backend: simulated multiprocessor" in
      let total = sum (fun _ -> true)
      and dep = sum (fun e -> e.Report.Loc_count.kind = "system-dependent") in
      let pct =
        Printf.sprintf "%.1f %%" (100. *. float_of_int dep /. float_of_int total)
      in
      let quotes file text =
        let doc =
          In_channel.with_open_bin (Filename.concat root file) In_channel.input_all
          |> String.split_on_char '\n' |> String.concat " "
          |> String.split_on_char ' ' |> List.filter (( <> ) "")
          |> String.concat " "
        in
        if not (contains doc text) then
          Alcotest.failf "%s does not quote E2 as %S" file text
      in
      quotes "EXPERIMENTS.md"
        (Printf.sprintf
           "`mp_repro portability` counts %s lines for the uniprocessor \
            backend, %s for the domains backend and %s for the simulated \
            machine, out of a lib/ total of %s (%s system-dependent lines, %s"
           uni dom sim (n total) (n dep) pct);
      quotes "README.md"
        (Printf.sprintf
           "**Portability table**: per-backend (system-dependent) code is %s \
            of the runtime's %s lines (%s), most of it the simulated machine \
            (%s); the two real ports (uniprocessor %s, domains %s)"
           (n dep) (n total) pct sim uni dom)

(* ---------------- model ---------------- *)

let test_model_amdahl () =
  let p =
    Model.Speedup_model.
      { work = 16.; serial = 0.; gc = 0.; bus_seconds = 0.; max_par = infinity }
  in
  Alcotest.(check (float 1e-6))
    "perfect scaling" 16.
    (Model.Speedup_model.speedup p ~procs:16);
  let p2 = { p with gc = 1. } in
  checkb "gc caps speedup" true (Model.Speedup_model.speedup p2 ~procs:16 < 9.)

let test_model_bus_floor () =
  let p =
    Model.Speedup_model.
      { work = 10.; serial = 0.; gc = 0.; bus_seconds = 5.; max_par = infinity }
  in
  Alcotest.(check (float 1e-6))
    "bus-bound time" 5.
    (Model.Speedup_model.time p ~procs:16)

let test_model_parallelism_cap () =
  let p =
    Model.Speedup_model.
      { work = 12.; serial = 0.; gc = 0.; bus_seconds = 0.; max_par = 4. }
  in
  Alcotest.(check (float 1e-6))
    "capped at 4" 4.
    (Model.Speedup_model.speedup p ~procs:16)

let test_model_topology () =
  let p =
    Model.Speedup_model.
      { work = 16.; serial = 0.; gc = 0.; bus_seconds = 4.; max_par = infinity }
  in
  (* The flat topology is the identity refinement. *)
  List.iter
    (fun procs ->
      Alcotest.(check (float 1e-9))
        "flat topology = no topology"
        (Model.Speedup_model.time p ~procs)
        (Model.Speedup_model.time ~topology:Model.Speedup_model.flat p ~procs))
    [ 1; 4; 16 ];
  let topo =
    Model.Speedup_model.{ nodes = 4; procs_per_node = 4; link_seconds = 0.1 }
  in
  check "one node active" 1 (Model.Speedup_model.nodes_active topo ~procs:4);
  check "all nodes active" 4 (Model.Speedup_model.nodes_active topo ~procs:16);
  (* With a cheap link, spreading over 4 node buses relieves the bus
     bound: flat is stuck at bus_seconds, the NUMA machine is not. *)
  Alcotest.(check (float 1e-9))
    "flat bus-bound" 4.
    (Model.Speedup_model.time p ~procs:16);
  Alcotest.(check (float 1e-9))
    "numa relieves the bus" 1.
    (Model.Speedup_model.time ~topology:topo p ~procs:16)

let test_model_numa_knee () =
  let p =
    Model.Speedup_model.
      { work = 16.; serial = 0.; gc = 0.; bus_seconds = 4.; max_par = infinity }
  in
  (* A link slower than one node bus: the curve tracks flat while the
     pool fits one node, then hits the link floor and collapses. *)
  let topo =
    Model.Speedup_model.{ nodes = 4; procs_per_node = 4; link_seconds = 6. }
  in
  Alcotest.(check (float 1e-9))
    "within one node = flat"
    (Model.Speedup_model.time p ~procs:4)
    (Model.Speedup_model.time ~topology:topo p ~procs:4);
  checkb "knee: more procs, less speedup" true
    (Model.Speedup_model.speedup ~topology:topo p ~procs:16
    < Model.Speedup_model.speedup ~topology:topo p ~procs:4);
  Alcotest.(check (float 1e-9))
    "collapsed onto the link floor" 6.
    (Model.Speedup_model.time ~topology:topo p ~procs:16);
  (* Same machine with a free link scales monotonically. *)
  let cheap = { topo with Model.Speedup_model.link_seconds = 0. } in
  checkb "no knee without link cost" true
    (Model.Speedup_model.speedup ~topology:cheap p ~procs:16
    > Model.Speedup_model.speedup ~topology:cheap p ~procs:4)

let test_model_fit () =
  let p =
    Model.Speedup_model.fit ~elapsed1:10. ~gc1:2. ~bus_busy1:1. ~serial:1. ()
  in
  Alcotest.(check (float 1e-6)) "work" 7. p.Model.Speedup_model.work;
  Alcotest.(check (float 1e-6)) "gc kept" 2. p.Model.Speedup_model.gc

(* ---------------- experiments (reduced sweep) ---------------- *)

let samples =
  lazy (Report.Experiments.sweep ~plist:[ 1; 4 ] ~machine:"sequent" ())

let test_sweep_all_verified () =
  let s = Lazy.force samples in
  check "6 benches x 2 points" 12 (List.length s);
  checkb "every checksum verified" true
    (List.for_all (fun x -> x.Report.Experiments.verified) s)

(* fib's witness is fib 24, checked like every other workload's. *)
let test_fib_cells_verified () =
  List.iter
    (fun procs ->
      let s, _, _ =
        Report.Experiments.run_cell (Sim.Sim_config.sequent ()) ("fib", procs)
      in
      check "fib witness" 46_368 s.Report.Experiments.checksum;
      checkb
        (Printf.sprintf "fib@%d verified" procs)
        true s.Report.Experiments.verified)
    [ 1; 4 ]

let test_sweep_speedups_reasonable () =
  let s = Lazy.force samples in
  List.iter
    (fun bench ->
      let sp = Report.Experiments.speedup s ~bench ~procs:4 in
      checkb (bench ^ " speedup in (1, 4.2]") true (sp > 1.0 && sp <= 4.2))
    [ "allpairs"; "mst"; "abisort"; "simple"; "mm"; "seq" ]

let test_sweep_no_gc_at_least_as_fast () =
  let s = Lazy.force samples in
  List.iter
    (fun bench ->
      let sp = Report.Experiments.speedup s ~bench ~procs:4 in
      let sp_nogc = Report.Experiments.speedup_no_gc s ~bench ~procs:4 in
      checkb (bench ^ " gc exclusion not worse") true (sp_nogc >= sp -. 0.3))
    [ "allpairs"; "abisort"; "mm" ]

(* Satellite of the parallel-driver PR: self-relative speedup must be
   monotone non-decreasing from 1 to 4 procs for every workload (speedup@1
   is 1.0 by construction, so this is speedup@4 >= 1). *)
let test_sweep_speedup_monotone () =
  let s = Lazy.force samples in
  List.iter
    (fun bench ->
      let sp1 = Report.Experiments.speedup s ~bench ~procs:1 in
      let sp4 = Report.Experiments.speedup s ~bench ~procs:4 in
      checkb
        (Printf.sprintf "%s speedup monotone 1->4 (%.3f -> %.3f)" bench sp1 sp4)
        true (sp4 >= sp1))
    [ "allpairs"; "mst"; "abisort"; "simple"; "mm"; "seq" ]

(* The parallel sweep driver must be invisible in the results: fanning the
   grid cells across 2 host domains yields the exact sample list the
   sequential driver produces. *)
let test_sweep_jobs_deterministic () =
  let s1 = Lazy.force samples in
  let s2 =
    Report.Experiments.sweep ~plist:[ 1; 4 ] ~jobs:2 ~machine:"sequent" ()
  in
  checkb "jobs=2 sample list identical to jobs=1" true (s1 = s2)

(* Every speedup divides by the 1-proc cell, so a sweep over [4] alone
   still runs it: the same samples as the [1; 4] sweep. *)
let test_sweep_adds_baseline () =
  let s = Report.Experiments.sweep ~plist:[ 4 ] ~machine:"sequent" () in
  checkb "plist [4] sweeps [1; 4]" true (s = Lazy.force samples);
  checkb "mm speedup@4 readable" true
    (Report.Experiments.speedup s ~bench:"mm" ~procs:4 > 1.0)

let test_print_sections_smoke () =
  let s = Lazy.force samples in
  let out =
    render_to_string (fun fmt ->
        Report.Experiments.print_fig6 fmt s;
        Report.Experiments.print_idle fmt s;
        Report.Experiments.print_bus fmt s;
        Report.Experiments.print_gc_ablation fmt s)
  in
  checkb "fig6 section" true (contains out "Figure 6");
  checkb "verification line" true (contains out "all verified");
  checkb "gc table" true (contains out "speedup w/o GC")

(* Tracing must be invisible in the results and must reach every machine:
   a traced work-stealing sweep returns exactly the untraced samples, and
   a traced NUMA sweep streams events to its file. *)
let traced path f =
  let v = Report.Experiments.trace path f in
  let ic = open_in path in
  let bytes = in_channel_length ic in
  close_in ic;
  Sys.remove path;
  (v, bytes)

let test_trace_keeps_samples () =
  let ws () =
    Report.Experiments.sweep ~plist:[ 1; 4 ] ~sched:"ws" ~machine:"sequent" ()
  in
  let t, bytes = traced "trace_ws.jsonl" ws in
  checkb "ws trace non-empty" true (bytes > 0);
  checkb "traced ws samples = untraced" true (t = ws ())

let test_trace_numa () =
  let _, bytes =
    traced "trace_numa.jsonl" (fun () ->
        Report.Experiments.sweep ~plist:[ 1; 4 ] ~machine:"numa:2x8" ())
  in
  checkb "numa:2x8 trace non-empty" true (bytes > 0)

(* ---------------- server sweep ---------------- *)

(* A server cell names the procs it ran on: the 8-proc SGI's grid reads 1,
   4 and 8 procs, and its ramp 8. *)
let test_server_procs_clamped () =
  let procs cells =
    List.sort_uniq compare
      (List.map (fun c -> c.Report.Server_bench.procs) cells)
  in
  Alcotest.(check (list int))
    "sgi grid procs" [ 1; 4; 8 ]
    (procs (Report.Server_bench.grid ~quick:true ~machine:"sgi" ()));
  Alcotest.(check (list int))
    "sgi ramp procs" [ 8 ]
    (procs (Report.Server_bench.ramp ~quick:true ~machine:"sgi" ()))

(* ---------------- job pool ---------------- *)

let test_job_pool_map () =
  List.iter
    (fun jobs ->
      List.iter
        (fun n ->
          let xs = List.init n (fun i -> i) in
          let f x = (x * x) + jobs in
          Alcotest.(check (list int))
            (Printf.sprintf "jobs=%d n=%d" jobs n)
            (List.map f xs)
            (Exec.Job_pool.map ~jobs f xs))
        [ 0; 1; 3; 100 ])
    [ 1; 2; 4 ]

exception Job_failed of int

(* Two failing jobs: the lower index wins even when it fails last, and
   with domains the raise comes only after every other job has run. *)
let test_job_pool_lowest_exception () =
  List.iter
    (fun jobs ->
      let ran = Atomic.make 0 in
      let f i =
        if i = 3 then begin
          (* fail later than job 7 does *)
          for k = 1 to 1_000_000 do
            ignore (Sys.opaque_identity k)
          done;
          raise (Job_failed i)
        end;
        if i = 7 then raise (Job_failed i);
        Atomic.incr ran
      in
      match Exec.Job_pool.map ~jobs f (List.init 10 Fun.id) with
      | _ -> Alcotest.fail "no exception raised"
      | exception Job_failed i ->
          check (Printf.sprintf "jobs=%d: lowest failing index" jobs) 3 i;
          if jobs > 1 then
            check
              (Printf.sprintf "jobs=%d: all other jobs ran first" jobs)
              8 (Atomic.get ran))
    [ 1; 2; 4 ]

let () =
  Alcotest.run "report"
    [
      ( "render",
        [
          Alcotest.test_case "table" `Quick test_table_alignment;
          Alcotest.test_case "series" `Quick test_series;
          Alcotest.test_case "chart legend" `Quick test_chart_has_legend;
          Alcotest.test_case "section" `Quick test_section;
          Alcotest.test_case "empty rows" `Quick test_table_empty_rows;
          Alcotest.test_case "chart scale" `Quick test_chart_scales_to_max;
        ] );
      ( "stats",
        [
          Alcotest.test_case "zero" `Quick test_stats_zero;
          Alcotest.test_case "fractions" `Quick test_stats_fractions;
          Alcotest.test_case "pp" `Quick test_stats_pp;
        ] );
      ( "loc",
        [
          Alcotest.test_case "find root" `Quick test_loc_finds_root;
          Alcotest.test_case "scan" `Quick test_loc_scan;
          Alcotest.test_case "docs quote the scan" `Quick
            test_loc_docs_quote_scan;
        ] );
      ( "model",
        [
          Alcotest.test_case "amdahl" `Quick test_model_amdahl;
          Alcotest.test_case "bus floor" `Quick test_model_bus_floor;
          Alcotest.test_case "parallelism cap" `Quick test_model_parallelism_cap;
          Alcotest.test_case "fit" `Quick test_model_fit;
          Alcotest.test_case "topology" `Quick test_model_topology;
          Alcotest.test_case "numa knee" `Quick test_model_numa_knee;
        ] );
      ( "experiments",
        [
          Alcotest.test_case "sweep verified" `Slow test_sweep_all_verified;
          Alcotest.test_case "speedups reasonable" `Slow
            test_sweep_speedups_reasonable;
          Alcotest.test_case "speedup monotone 1->4" `Slow
            test_sweep_speedup_monotone;
          Alcotest.test_case "parallel driver deterministic" `Slow
            test_sweep_jobs_deterministic;
          Alcotest.test_case "gc exclusion" `Slow test_sweep_no_gc_at_least_as_fast;
          Alcotest.test_case "1-proc baseline always runs" `Slow
            test_sweep_adds_baseline;
          Alcotest.test_case "print sections" `Slow test_print_sections_smoke;
          Alcotest.test_case "trace keeps ws samples" `Slow
            test_trace_keeps_samples;
          Alcotest.test_case "trace reaches numa cells" `Slow test_trace_numa;
          Alcotest.test_case "fib cells verified" `Quick
            test_fib_cells_verified;
        ] );
      ( "server",
        [
          Alcotest.test_case "cells clamped to the machine's procs" `Quick
            test_server_procs_clamped;
        ] );
      ( "job_pool",
        [
          Alcotest.test_case "map = List.map" `Quick test_job_pool_map;
          Alcotest.test_case "lowest-index exception" `Quick
            test_job_pool_lowest_exception;
        ] );
    ]
