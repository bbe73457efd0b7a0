(** The paper's five Figure-6 benchmarks plus the [seq] baseline, as
    parallel programs over the MP thread stack.

    Each function runs the complete application under [P.run] inside a
    {!Mpthreads.Sched_thread} pool of [procs] procs and returns a
    correctness witness (checksum / MST weight / sortedness) that tests
    compare against the sequential reference implementations.  Timing and
    resource statistics are read from [P.stats ()] (and, on the simulator,
    [Machine]) by the caller after the run.

    Workload kernels are real computations annotated with
    [Work.step ~instrs ~alloc_words] charges.  Instruction counts follow the
    operation counts of each kernel; allocation ratios follow SML/NJ's
    ≈1 word per 3–7 instructions (paper §5), varied per benchmark the way a
    1992 SML compilation of each kernel would (boxed floats in [simple],
    list/tree cells in [abisort], tight integer loops in [mm]). *)

val names : string list
(** ["allpairs"; "mst"; "abisort"; "simple"; "mm"; "seq"; "fib"] — Figure 6's
    legend order, plus the scheduler-stress [fib]; {!Make.run_named} accepts
    each. *)

module Make (P : Mp.Mp_intf.PLATFORM_INT) : sig
  module Sched : module type of Mpthreads.Sched_thread.Make (P)

  val mm :
    procs:int ->
    ?sched:Mpthreads.Sched_policy.t ->
    ?n:int ->
    ?seed:int ->
    unit ->
    int
  (** Matrix multiply of two [n]×[n] (default 100×100) integer matrices,
      parallel over rows.  Returns {!Matrix.checksum} of the product. *)

  val allpairs :
    procs:int ->
    ?sched:Mpthreads.Sched_policy.t ->
    ?n:int ->
    ?seed:int ->
    unit ->
    int
  (** Floyd's algorithm on an [n]-node graph (default 75), parallel over
      rows within each of the [n] k-phases (a barrier per phase).  Returns
      {!Graph.checksum} of the distance matrix. *)

  val mst :
    procs:int -> ?sched:Mpthreads.Sched_policy.t -> ?n:int -> ?seed:int ->
    unit -> int
  (** Prim's algorithm on [n] random points (default 200): each of the
      n-1 steps does a parallel min-reduction and a parallel relaxation.
      Returns the total MST weight. *)

  val abisort :
    procs:int -> ?sched:Mpthreads.Sched_policy.t -> ?size:int -> ?seed:int ->
    unit -> int
  (** Adaptive bitonic sort of [size] (default 2^12) integers, parallel
      recursion on subtree sorts and sub-merges.  Returns a checksum of the
      sorted array (compare against sorting the same input sequentially). *)

  val simple :
    procs:int -> ?sched:Mpthreads.Sched_policy.t -> ?n:int -> ?steps:int ->
    ?seed:int -> unit -> int
  (** The SIMPLE hydrodynamics step on an [n]×[n] grid (default 100×100,
      one step): row-parallel phases split by barriers, a serial boundary
      pass, and a lock-reduced global CFL bound.  Returns {!Hydro.checksum}. *)

  val seq :
    procs:int -> ?copies:int -> ?sched:Mpthreads.Sched_policy.t -> ?work:int ->
    unit -> int
  (** [copies] (default [procs]) fully independent copies of a small
      application — the paper's [seq] control showing that "lock contention
      and other parallelism issues are not at fault".  Its self-relative
      speedup compares [p] copies on [p] procs against [p] copies on one
      proc.  Returns the number of copies run. *)

  val fib :
    procs:int ->
    ?sched:Mpthreads.Sched_policy.t ->
    ?n:int -> ?cutoff:int -> unit -> int
  (** Unbalanced divide-and-conquer [fib n] (default 24) with a sequential
      [cutoff] (default 8) — the classic work-stealing stress: subtree
      sizes differ exponentially and tasks are fine-grained, so scheduler
      dispatch throughput dominates.  Not part of the paper's Figure 6
      suite; added for the scheduler-policy axis.  Returns [fib n]. *)

  val run_named : ?sched:Mpthreads.Sched_policy.t -> string -> procs:int -> int
  (** Run a benchmark by name with the paper's default parameters, under
      the given scheduling policy (default {!Mpthreads.Sched_policy.default},
      the golden-pinned distributed run queue). *)
end
