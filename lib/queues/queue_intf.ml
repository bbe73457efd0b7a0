(** Queue interfaces.

    [QUEUE] is the paper's signature (Figure 1): it deliberately does not fix
    the queuing discipline, which is how thread scheduling policy is selected
    — "thread scheduling policy can be changed simply by varying the
    functor's argument". *)

exception Empty
(** Raised by [deq] on an empty queue.  Shared by every implementation so
    that client handlers are portable across disciplines. *)

exception Full
(** Raised by bounded queues on [enq] when at capacity. *)

module type QUEUE = sig
  type 'a queue

  val create : unit -> 'a queue
  val enq : 'a queue -> 'a -> unit

  val deq : 'a queue -> 'a
  (** @raise Empty when the queue is empty. *)

  exception Empty
end

(** [QUEUE] plus the non-paper conveniences used by schedulers and tests. *)
module type QUEUE_EXT = sig
  include QUEUE

  val deq_opt : 'a queue -> 'a option
  val length : 'a queue -> int
  val is_empty : 'a queue -> bool
end

(** Priority discipline; as the paper's footnote notes, priorities require a
    minor signature change (a priority passed to the enqueue operation). *)
module type PRIORITY_QUEUE = sig
  type 'a queue

  val create : unit -> 'a queue
  val enq : 'a queue -> priority:int -> 'a -> unit

  val deq : 'a queue -> 'a
  (** Dequeues an element of the numerically highest priority.
      @raise Empty when the queue is empty. *)

  val deq_opt : 'a queue -> 'a option

  val peek : 'a queue -> 'a
  (** The element {!deq} would return, without removing it.
      @raise Empty when the queue is empty. *)

  val peek_opt : 'a queue -> 'a option
  val length : 'a queue -> int
  val is_empty : 'a queue -> bool

  exception Empty
end
