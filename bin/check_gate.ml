(* [mp_repro check]: the gate for the mp_check exploration harness.

   Runs every scenario in the corpus under a wall-clock budget and prints a
   per-scenario table; exits 1 if any scenario fails, if a self-test (a
   deliberately broken client) is NOT caught, or if the per-scenario
   schedule floor is not met — a scenario the budget skipped counts as
   missing it.  The self-tests run whatever the budget; they take
   milliseconds.  Exploration is race-directed (DPOR + sleep sets) by
   default; test_check pins both explorers' bound-3 schedule counts and
   the reduction between them.  Two shapes:

     mp_repro check --bound 3 --seconds 300              # every-PR gate
     mp_repro check --bound 4 --faults --mode both       # weekly deep run *)

open Cmdliner

module P = Mpcheck.Mp_check.Int (struct
  let max_procs = 2
end) ()

module S = Mpcheck.Scenarios.Make (P)

let run bound mode runs seed with_faults seconds max_schedules max_steps dpor =
  let faults =
    if with_faults then
      {
        Mpcheck.Check_intf.no_faults with
        try_lock_fail_pct = 20;
        backoff_boost = 2;
      }
    else Mpcheck.Check_intf.no_faults
  in
  let t0 = Unix.gettimeofday () in
  let deadline = t0 +. seconds in
  let stop () = Unix.gettimeofday () > deadline in
  let failures = ref 0 in
  let skipped = ref 0 in
  Printf.printf
    "mp_check smoke: bound=%d mode=%s faults=%b dpor=%b budget=%.0fs\n%!"
    bound mode with_faults dpor seconds;
  Printf.printf "%-24s %10s %9s %8s %7s %s\n" "scenario" "schedules"
    "truncated" "pruned" "time" "result";
  let run_scenario want_failure (name, body) =
    let stop = if want_failure then fun () -> false else stop in
    if stop () then begin
      incr skipped;
      Printf.printf "%-24s %10s %9s %8s %7s skipped (budget exhausted)\n%!"
        name "-" "-" "-" "-"
    end
    else begin
      let s0 = Unix.gettimeofday () in
      let reports = ref [] in
      if mode = "dfs" || mode = "both" then
        reports :=
          P.Explore.dfs ~bound ~max_schedules ~max_steps ~faults ~stop ~dpor
            body
          :: !reports;
      if
        (mode = "random" || mode = "both")
        && not
             (List.exists (fun r -> r.Mpcheck.Mp_check.failure <> None) !reports)
      then
        reports :=
          P.Explore.random ?seed ~runs ~max_steps ~faults body :: !reports;
      let dt = Unix.gettimeofday () -. s0 in
      let sum f = List.fold_left (fun n r -> n + f r) 0 !reports in
      let schedules = sum (fun r -> r.Mpcheck.Mp_check.schedules) in
      let truncated = sum (fun r -> r.Mpcheck.Mp_check.truncated) in
      let pruned = sum (fun r -> r.Mpcheck.Mp_check.pruned) in
      let failure =
        List.find_map (fun r -> r.Mpcheck.Mp_check.failure) !reports
      in
      let capped = List.exists (fun r -> r.Mpcheck.Mp_check.capped) !reports in
      let ok, verdict =
        match (failure, want_failure) with
        | None, false ->
            (schedules > 0, if capped then "ok (capped)" else "ok")
        | Some _, true -> (true, "caught (expected)")
        | None, true -> (false, "MISSED EXPECTED BUG")
        | Some _, false -> (false, "FAILED")
      in
      Printf.printf "%-24s %10d %9d %8d %6.2fs %s\n%!" name schedules truncated
        pruned dt verdict;
      (match failure with
      | Some f when not want_failure ->
          Format.printf "%a@." Mpcheck.Mp_check.pp_failure f
      | _ -> ());
      if not ok then incr failures
    end
  in
  List.iter (run_scenario false) S.all;
  (* heavy scenarios: schedule-capped so the gate stays fast *)
  List.iter (run_scenario false) (if bound >= 2 then S.heavy else []);
  (* self-test: the broken lock must be caught *)
  List.iter (run_scenario true) S.broken;
  let dt = Unix.gettimeofday () -. t0 in
  Printf.printf "total: %.1fs, %d failure(s), %d skipped\n%!" dt !failures
    !skipped;
  if !failures + !skipped > 0 then exit 1

let seed_conv =
  let parse s =
    match Mpcheck.Sched_seed.of_string s with
    | seed -> Ok seed
    | exception _ -> Error (`Msg ("bad seed " ^ s))
  in
  Arg.conv
    ( parse,
      fun ppf s -> Format.pp_print_string ppf (Mpcheck.Sched_seed.to_string s) )

let cmd =
  let opt c default names doc = Arg.(value & opt c default & info names ~doc)
  in
  let flag names doc = Arg.(value & flag & info names ~doc) in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "The mp_check gate: explore every scenario of the corpus under a \
          wall-clock budget; exit 1 on a failure or a missed expected bug")
    Term.(
      const run
      $ opt Arg.int 2 [ "bound" ] "Preemption bound for DFS."
      $ opt
          Arg.(enum (List.map (fun m -> (m, m)) [ "dfs"; "random"; "both" ]))
          "dfs" [ "mode" ] "$(b,dfs), $(b,random) or $(b,both)."
      $ opt Arg.int 500 [ "runs" ] "Random runs per scenario."
      $ opt Arg.(some seed_conv) None [ "seed" ] "Base seed for random mode."
      $ flag [ "faults" ] "Enable fault injection."
      $ opt Arg.float 120.0 [ "seconds" ] "Total wall-clock budget."
      $ opt Arg.int 20_000 [ "max-schedules" ] "DFS schedule cap per scenario."
      $ opt Arg.int 20_000 [ "max-steps" ] "Per-run step budget."
      $ Arg.(
          value
          & vflag true
              [
                (true, info [ "dpor" ] ~doc:"Race-directed exploration (default).");
                ( false,
                  info [ "no-dpor" ]
                    ~doc:
                      "Plain CHESS DFS: expand every alternative at every \
                       decision." );
              ]))
