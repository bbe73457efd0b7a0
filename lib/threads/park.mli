(** The one park/wake path of every blocking construct — synchronization
    constructs, the M3/ML thread packages, selective communication and
    CML — written once over [Lock] and [callcc] (paper §3.3).

    A park takes the construct's spin lock and decides under it, as the
    paper's Figure 5 [send] does.  A thread that may proceed unlocks and
    goes on in its own fiber: no continuation is captured.  Only a thread
    that must wait calls [callcc], still holding the lock, to enqueue its
    waiter [(k, tid)]; it then unlocks, emits [Blocked], bumps
    [<layer>.blocks] and dispatches.  A wake emits [Wakeup] and bumps
    [<layer>.wakeups], then reschedules.  Telemetry is host-side only. *)

module Make (P : Mp.Mp_intf.PLATFORM_INT) (S : Thread_intf.SCHED) : sig
  type 'a waiter = 'a Mp.Engine.cont * int

  type layer
  (** [<name>.blocks] and [<name>.wakeups], resolved once. *)

  val layer : string -> layer

  (** A construct's decision, made with its spin lock held. *)
  type 'a step =
    | Go of (unit -> 'a)
        (** Proceed; the thunk runs after the lock is released and gives
            the result (wakes owed to other threads go here). *)
    | Wait of ('a waiter -> unit)
        (** Park: the function enqueues the waiter, which [callcc] has
            just captured, with the lock still held. *)

  val park :
    ?release:(unit -> unit) ->
    layer ->
    string ->
    P.Lock.mutex_lock ->
    (unit -> 'a step) ->
    'a
  (** [park layer on spin decide]; the event is tagged [on].  On [Wait],
      [release] runs between the unlock and the dispatch (a condition wait
      releases its mutex there).  Returns the waker's value or the [Go]
      thunk's result. *)

  val block : layer -> string -> int -> 'a
  (** The last two steps alone, for constructs that enqueue and unlock
      under their own protocol (Figure 5's receive, CML's sync). *)

  val wake : layer -> string -> unit waiter -> unit
  val wake_with : layer -> string -> 'a Mp.Engine.cont * 'a * int -> unit

  (** The [sync] layer and the hand-off mutex and condition that report
      under it, resolved when applied: only their users register [sync.*]. *)
  module Sync (_ : sig end) : sig
    val layer : layer

    (** Blocking mutex, ownership handed to the longest waiter
        ([sync.mutex]). *)
    module Mutex : sig
      type t

      val create : unit -> t
      val lock : t -> unit
      val try_lock : t -> bool
      val unlock : t -> unit
      val with_lock : t -> (unit -> 'a) -> 'a
    end

    (** Mesa-semantics condition variable ([sync.condition]). *)
    module Condition : sig
      type t

      val create : unit -> t

      val wait : Mutex.t -> t -> unit
      (** Release the mutex and block; re-acquire it before returning. *)

      val signal : t -> unit
      val broadcast : t -> unit
    end
  end
end
