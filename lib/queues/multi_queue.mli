(** Distributed run queue with work stealing.

    The paper's evaluation thread package adds "a distributed run queue" to
    the Figure-3 design; this is that substrate.  One lock-protected deque
    per proc: the owner pushes/pops at the front, and when its own deque is
    empty it steals from the back of a victim's deque, scanning victims in a
    rotating order from a per-proc starting point to avoid convoying. *)

module Make (L : Mp.Mp_intf.LOCK) : sig
  type 'a t

  val create : ?wake:(unit -> unit) -> procs:int -> unit -> 'a t
  (** [wake] (default [ignore]) runs inside the slot lock's section after
      every push, right after the item lands: the platform's charge-free
      [Work.wake_idle] hint for procs idling on {!looks_nonempty} or
      {!looks_nonempty_local}. *)

  val procs : 'a t -> int

  val push : 'a t -> proc:int -> 'a -> unit
  (** Push onto [proc]'s own queue (newest first). *)

  val push_back : 'a t -> proc:int -> 'a -> unit
  (** Push onto the back of [proc]'s queue (oldest first): paired with
      {!take_local} this gives slot-level FIFO order, which the central-FIFO
      and micropool scheduler policies build on. *)

  val push_global : 'a t -> 'a -> unit
  (** Push onto the queue of a rotating proc — used by producers with no
      proc affinity. *)

  val take : 'a t -> proc:int -> 'a option
  (** Pop from [proc]'s own queue, or steal from a victim; [None] when every
      queue is empty. *)

  val take_local : 'a t -> proc:int -> 'a option
  (** Pop from [proc]'s own queue only. *)

  val steal : 'a t -> proc:int -> 'a option
  (** Steal from some other proc's queue only. *)

  val looks_nonempty : 'a t -> bool
  (** Racy, lock-free hint: [true] iff the queue currently holds items,
      read from an exact counter maintained inside the slot locks (O(1),
      no per-deque scan).  Suitable as an idle poller's readiness
      predicate: reads only, takes no locks, performs no platform
      charges. *)

  val looks_nonempty_local : 'a t -> proc:int -> bool
  (** Like {!looks_nonempty}, restricted to [proc]'s own deque (the peek
      set of {!take_local}). *)

  val total_length : 'a t -> int
  (** Approximate total enqueued items (racy snapshot). *)

  val steals : 'a t -> int
  (** Number of successful steals so far. *)

  val steal_attempts : 'a t -> int
  (** Number of victims {!steal} locked because their deque looked
      non-empty, successful or not.  Empty-looking victims are skipped
      unlocked and not counted. *)
end
