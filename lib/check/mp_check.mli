(** Controlled-concurrency schedule exploration for the MP platform.

    [Mp_check] is a fourth platform backend whose scheduler is the test
    harness: every visible operation — lock acquire/try/release, atomic-cell
    access in the queue family, proc acquire/release, [Work] safe points —
    suspends the running fiber at a {e serialization point}, and a
    single-threaded exploration loop decides which proc performs its pending
    operation next.  Client code (locks and the lock-free queue over
    [Prims], the thread/sync/select/CML packages over the [PLATFORM]) runs
    unmodified; between two serialization points a proc executes atomically,
    so the set of explored interleavings is exactly the set of orderings of
    visible operations.

    Three exploration modes (see {!S.Explore}): exhaustive DFS under an
    iterative preemption bound (CHESS-style), random-schedule fuzzing from a
    printable 64-bit seed that replays as a single run, and either combined
    with fault injection ({!Check_intf.faults}).  A failing run is shrunk to
    a minimal forced schedule and rendered as an [Obs] event trace. *)

type failure = {
  error : exn;  (** the exception that escaped the failing run *)
  schedule : int list;
      (** minimal forced schedule: the proc to run at decision 0, 1, …;
          decisions beyond the list follow the default (non-preemptive)
          policy.  Feed it back through {!S.Explore.replay}. *)
  seed : string option;
      (** printable seed of the failing run (random mode only); replay it
          as the single run of {!S.Explore.random} [~seed ~runs:1]. *)
  trace : Obs.Event.t list;
      (** the minimal counterexample, one {!Obs.Event.Step} per decision. *)
}

type report = {
  schedules : int;  (** runs performed *)
  truncated : int;  (** runs abandoned at the step budget *)
  pruned : int;
      (** runs abandoned sleep-blocked (DPOR only: commuted duplicates of
          already-explored traces); 0 for plain DFS and random mode *)
  capped : bool;  (** DFS stopped at [max_schedules] with work remaining *)
  failure : failure option;  (** first failure found, shrunk *)
}

val pp_failure : Format.formatter -> failure -> unit
(** Multi-line rendering: exception, seed/replay hint, forced schedule, and
    the per-decision Obs trace. *)

(** What a checkable platform instance provides beyond [PLATFORM]. *)
module type S = sig
  include Mp.Mp_intf.PLATFORM

  module Prims : Mp.Mp_intf.PRIMS
  (** Instrumented atomic cells for the lock-algorithm functors and
      [Spmc_queue.Make]: every [get]/[set]/[exchange]/[compare_and_set]/
      [fetch_and_add] is a serialization point, [unsafe_peek] is not, and
      [pause]/[pause_n] are yield points, which is how spin loops stay
      fair (and finite) under exploration. *)

  val spawn : (unit -> unit) -> unit
  (** Acquire a free proc and run the thunk on it, releasing the proc when
      the thunk returns.  The caller continues immediately.
      @raise Mp.Mp_intf.No_More_Procs when the pool is exhausted. *)

  val set_nodes : int -> unit
  (** Group the procs into [n] contiguous interconnect nodes (reported by
      [Proc.nodes]/[Proc.node_of]) so node-aware scheduler paths can be
      explored; clamped to [1 .. max_procs], default 1 (flat).  Constant
      during a run — call it outside [run], typically at scenario start. *)

  val line_sharers : Work.line -> int
  (** The sharer set of a cache line (bit [n] set = node [n] holds the
      line), as the simulator's [Interconnect] tracks it, for scenarios
      checking the claim/invalidate discipline. *)

  module Explore : sig
    val dfs :
      ?bound:int ->
      ?max_schedules:int ->
      ?max_steps:int ->
      ?faults:Check_intf.faults ->
      ?stop:(unit -> bool) ->
      ?dpor:bool ->
      (unit -> unit) ->
      report
    (** Exhaustive DFS over schedules with at most [bound] preemptions
        (default 2).  A preemption is a context switch away from a proc
        that could have continued (not blocked, not at a yield point);
        switches at blocking and yield points are free, so the default
        policy runs each proc to its next voluntary release and the bound
        counts only the forced interleavings — the CHESS observation that
        most concurrency bugs need very few preemptions.  The body must be
        a self-contained scenario that calls [run] exactly once.
        Exploration stops at the first failure, which is shrunk.  [stop]
        is polled between schedules; returning [true] abandons the rest of
        the space and marks the report [capped] (wall-clock budgets live in
        the caller so the library stays deterministic by default).

        With [~dpor:true] exploration is race-directed ({!Dpor}): instead
        of expanding every alternative at every decision, only reversals
        of happens-before races are queued, sleep sets prune commuted
        duplicates, and the report's [pruned] counts runs abandoned as
        such.  Same failure semantics, same shrink, usually orders of
        magnitude fewer schedules. *)

    val random :
      ?seed:int64 ->
      ?runs:int ->
      ?max_steps:int ->
      ?faults:Check_intf.faults ->
      (unit -> unit) ->
      report
    (** Random-schedule fuzzing: [runs] runs (default 500), the [i]-th
        driven by [Sched_seed.derive seed i].  Since [derive s 0 = s], the
        seed printed by a failure replays with [~seed ~runs:1]. *)

    val replay :
      schedule:int list ->
      ?max_steps:int ->
      ?faults:Check_intf.faults ->
      (unit -> unit) ->
      failure option
    (** Re-run one forced schedule (a {!failure.schedule}); [Some] a fresh
        failure record (unshrunk) if it still fails.  Deterministic: the
        same schedule and faults always yield the same outcome and trace. *)
  end
end

module Make (C : sig
  val max_procs : int
end) (D : Mp.Mp_intf.DATUM) : S with type Proc.proc_datum = D.t

module Int (C : sig
  val max_procs : int
end) () : S with type Proc.proc_datum = int
(** Generative: each application is an independent checker instance. *)
