(** Modula-3 style thread package — the paper reports MP was used to build
    "a Modula-3 style thread package" which served as the basis for work on
    concurrent debugging, transactions and systems programming.

    Provides forked threads with typed join, blocking (non-spinning) mutexes
    with direct ownership handoff, and Mesa-semantics condition variables,
    all synthesized from the MP [Lock], refs and first-class continuations,
    over any [SCHED] thread package.  The mutex and condition are
    {!Park}'s, shared with {!Ml_threads}. *)

module Make (P : Mp.Mp_intf.PLATFORM_INT) (S : Thread_intf.SCHED) : sig
  type 'a t
  (** A thread handle carrying a result of type ['a]. *)

  val fork : (unit -> 'a) -> 'a t

  val join : 'a t -> 'a
  (** Block until the thread completes; returns its result or re-raises the
      exception it died with.  Multiple joiners are allowed. *)

  module Mutex : sig
    type t

    val create : unit -> t

    val lock : t -> unit
    (** Block (yielding the proc to other threads, not spinning) until the
        mutex is available.  Ownership is handed directly to the longest
        waiting thread on unlock. *)

    val try_lock : t -> bool
    (** Take the mutex if it is free, without blocking. *)

    val unlock : t -> unit
    val with_lock : t -> (unit -> 'a) -> 'a
  end

  module Condition : sig
    type t

    val create : unit -> t

    val wait : Mutex.t -> t -> unit
    (** Atomically release the mutex and block on the condition; re-acquires
        the mutex before returning (Mesa semantics: re-check the predicate). *)

    val signal : t -> unit
    val broadcast : t -> unit
  end

  (* Modula-3 alerts. *)

  exception Alerted

  val alert : 'a t -> unit
  (** Request that the thread stop: sets its alert flag and wakes it if it
      is blocked in {!alert_wait}. *)

  val test_alert : unit -> bool
  (** Check-and-clear the calling thread's alert flag. *)

  val alert_wait : Mutex.t -> Condition.t -> unit
  (** Like {!Condition.wait}, but raises {!Alerted} (with the mutex held,
      Modula-3 semantics) if the thread is or becomes alerted. *)
end
