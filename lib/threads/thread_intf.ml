(** Thread-package interfaces.

    [THREAD] is the paper's Figure-1 signature.  [SCHED] extends it with the
    scheduler internals ([reschedule], [dispatch], ...) that the paper's
    higher-level clients — selective communication (Figure 5), CML, and
    synchronization constructs — are written against. *)

module type THREAD = sig
  val fork : (unit -> unit) -> unit
  (** Start a new thread executing the given function, with a fresh integer
      id, running in parallel with its parent. *)

  val yield : unit -> unit
  (** Temporarily yield the processor to another thread. *)

  val id : unit -> int
  (** Id of the current thread. *)
end

module type SCHED = sig
  include THREAD

  val reschedule : unit Mp.Engine.cont * int -> unit
  (** Make a saved thread (continuation and id) ready to run. *)

  val reschedule_thread : 'a Mp.Engine.cont * 'a * int -> unit
  (** Make a thread blocked on a typed continuation ready, delivering the
      given value when it resumes (paper, Figure 5 caption). *)

  val dispatch : unit -> 'a
  (** Abandon the current computation and run the next ready thread; if
      none is available, give up the proc (or idle, package-dependent).
      Never returns. *)
end

(** A scheduler that can also run timed callbacks — what CML's timeout
    events require.  {!Sched_thread} provides it; the paper-faithful
    Figure-1/Figure-3 packages do not. *)
module type TIMED_SCHED = sig
  include SCHED

  val now : unit -> float
  val at : float -> (unit -> unit) -> unit
end

(** A ready-queue policy, the pluggable heart of {!Sched_thread}: the paper
    notes that "thread scheduling policy can be changed simply by varying
    the functor's argument", and this signature is that argument generalized
    beyond a single queue — per-proc state, fork placement and steal
    behavior all live behind it.  {!Sched_policy} provides the family
    (central FIFO/LIFO, the distributed locked deques, lock-free work
    stealing, pinned micropools). *)
module type SCHEDULER = sig
  val name : string

  type 'a t

  val create : procs:int -> 'a t
  (** [procs] is the platform's [max_procs] — the upper bound on proc
      indices that will ever touch the queue. *)

  val prepare : 'a t -> procs:int -> unit
  (** Called once per pool, after proc acquisition and before the pool body
      runs, with the number of procs actually acquired.  Elastic policies
      (work stealing's victim range, micropools' pool count) clamp
      themselves here; fixed policies ignore it. *)

  val push_local : 'a t -> proc:int -> 'a -> unit
  (** Enqueue with affinity to [proc] (the calling proc): resumed
      continuations land here. *)

  val push_yield : 'a t -> proc:int -> 'a -> unit
  (** Enqueue a thread that yielded — explicitly or at a quantum
      preemption — from [proc].  Work stealing puts it at the oldest end
      of [proc]'s queue, behind everything already queued there, since its
      owner pops newest-first and would otherwise resume the yielder at
      once; every other policy treats it as {!push_local}. *)

  val push_new : 'a t -> proc:int -> 'a -> unit
  (** Enqueue a freshly forked thread from [proc]; policies with no
      affinity for new work spray these round-robin. *)

  val take_back : 'a t -> proc:int -> 'a -> bool
  (** Remove [x], just pushed by [proc] (the calling proc), if it is still
      the newest item of [proc]'s own queue, so that the caller can run it
      in place.  Work stealing takes it back unless a thief claimed it;
      every other policy returns [false] without touching the queue. *)

  val take : 'a t -> proc:int -> 'a option
  (** Next runnable for [proc] — its own queue first, then whatever the
      policy's steal behavior finds.  [None] when the policy sees nothing
      runnable for this proc right now. *)

  val looks_nonempty : 'a t -> proc:int -> bool
  (** Racy, charge-free hint covering the peek set of {!take}: used as the
      idle poller's readiness predicate, so it must take no locks, perform
      no platform charges and write nothing. *)

  val total_length : 'a t -> int
  (** Approximate enqueued items (racy, charge-free snapshot). *)

  val steals : 'a t -> int
  (** Successful steal operations so far. *)

  val steal_attempts : 'a t -> int
  (** Steal probes, successful or not, that paid to look at a victim (a
      lock or a charged read): a victim skipped because it looked empty
      is not an attempt.  Policies that never steal report 0. *)
end
