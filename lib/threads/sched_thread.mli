(** The evaluation thread package (paper §6): "similar to that shown in
    Figure 3, with the addition of a distributed run queue and a ...
    preemption mechanism", and following the §3.1 advice to "acquire as many
    procs as possible ... and hold on to them for the duration".

    Procs are acquired once by {!Make.with_pool} and run a dispatch loop over
    a per-proc deque with work stealing; idle procs poll for work (accounted
    as idle time by the platform).  Preemption is timer-driven polling: the
    package installs a poll hook that yields when the current thread has held
    its proc longer than the quantum — the portable simulation of preemption
    signals that the paper's §3.4 describes. *)

module Make (P : Mp.Mp_intf.PLATFORM_INT) : sig
  include Thread_intf.SCHED

  val with_pool :
    ?procs:int ->
    ?quantum:float ->
    ?sched:Sched_policy.t ->
    (unit -> 'a) ->
    'a
  (** [with_pool f] acquires up to [procs] procs (default: the platform
      maximum), runs [f] as thread 0, and returns its result once it
      completes; worker procs release themselves when the pool is finished
      and their queues are dry.  [quantum] is the preemption quantum in
      seconds (virtual seconds on the simulator); default 0.02.
      [sched] selects the scheduling policy for this pool (see
      {!Sched_policy}); default [Distributed], the paper's distributed
      per-proc run queue, whose simulator behavior is bit-identical to the
      pre-policy scheduler; the Figure-3 single central queue is
      {!Sched_policy.Lifo}.  If any thread raised, the first such exception is re-raised here after the pool
      winds down.  Not reentrant. *)

  val fork_join : (unit -> unit) list -> unit
  (** Fork every function as a thread and block until all have finished.
      Under work stealing the caller then takes back, newest first, each
      child no thief has claimed and runs it in its own fiber; it waits,
      capturing a continuation, only when a child was stolen. *)

  val par_iter : ?chunks:int -> int -> (int -> unit) -> unit
  (** [par_iter n f] runs [f 0 .. f (n-1)] split into [chunks] contiguous
      blocks (default [4 * max_procs]) executed by [fork_join]. *)

  val now : unit -> float
  (** Platform time: virtual seconds on the simulator, wall clock otherwise. *)

  val sleep : float -> unit
  (** Block the calling thread for the given duration.  On the simulator the
      wait is in virtual time: idle procs advance the clock, so sleeping
      costs no wall time. *)

  val at : float -> (unit -> unit) -> unit
  (** Run a callback at (or shortly after) the given absolute time, in
      scheduler context on whichever proc notices it first.  Timers fire at
      safe points (dispatch and poll), the paper's timer-driven polling. *)

  val pool_procs : unit -> int
  (** Number of procs actually acquired by the current pool. *)

  val steals : unit -> int
  (** Successful work-steals since the pool started. *)

  val steal_attempts : unit -> int
  (** Steal probes (successful or not) of victims that looked non-empty,
      since the pool started; 0 under policies that never steal. *)

  val switches : unit -> int
  (** Thread dispatches since the pool started. *)
end
