(** Dynamic partial order reduction over recorded runs.

    The exploration platform ({!Mp_check}) records one {!step} per
    decision; this module turns completed runs into the minimal set of
    alternatives worth exploring (happens-before race reversals, with
    sleep sets suppressing commuted duplicates) and works through that
    FIFO frontier one forced run at a time on the calling domain.

    The dependence relation lives in {!Check_intf.depends}; the platform
    side of the contract (how ops are labelled with objects and access
    kinds, how the in-run sleep set redirects and prunes) lives in
    [Mp_check].  Combining DPOR with a preemption bound is an
    under-approximation in theory (a sleeping proc may only reach some
    bug within budget from the pruned branch); the bound-2
    DPOR-vs-full-DFS equivalence suite in [test_check] is the empirical
    guard. *)

(** One recorded decision of a run. *)
type step = {
  s_proc : int;
  s_label : string;
  s_obj : int;
  s_access : Check_intf.access;
  s_choices : int array;
  s_stutter : bool;
  s_preempts_before : int;
  s_prev : int;
  s_prev_continuable : bool;
  s_sleep : int;
}

(** How {!explore} executes forced runs on one platform instance:
    [run_prefix] returns the exception that escaped the run ([None] if it
    completed) and the run's decisions. *)
type runner = {
  nprocs : int;
  run_prefix :
    prefix:int array -> split:int -> alt:int -> sleep0:int ->
    exn option * step array;
  shrink : exn -> step array -> exn * int list * Obs.Event.t list;
}

type result = {
  r_schedules : int;
  r_pruned : int;
  r_truncated : int;
  r_capped : bool;
  r_failure : (exn * int list * Obs.Event.t list) option;
}

val explore :
  runner -> bound:int -> max_schedules:int -> stop:(unit -> bool) -> result
(** Race-directed exploration from the empty schedule, stopping at the
    first failure (shrunk with [runner.shrink]).  [stop] is polled before
    every run. *)
