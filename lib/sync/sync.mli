(** Synchronization constructs synthesized from mutex locks, refs and
    first-class continuations — the paper's §3.3: "more elaborate
    synchronization constructs such as reader/writer locks, semaphores,
    channels, etc., can be synthesized from mutex locks, refs, and
    first-class continuations".

    All constructs block by parking the calling thread's continuation and
    dispatching another thread, through {!Mpthreads.Park}; none of them
    spins. *)

module Make (P : Mp.Mp_intf.PLATFORM_INT) (S : Mpthreads.Thread_intf.SCHED) : sig
  (** Write-once cell (future). *)
  module Ivar : sig
    type 'a t

    exception Already_filled

    val create : unit -> 'a t

    val fill : 'a t -> 'a -> unit
    (** Wake every reader.  @raise Already_filled on a second fill. *)

    val read : 'a t -> 'a
    (** Block until filled. *)

    val poll : 'a t -> 'a option
  end

  (** Synchronized single-slot mailbox. *)
  module Mvar : sig
    type 'a t

    val create : unit -> 'a t
    val put : 'a t -> 'a -> unit
    (** Block while the slot is full. *)

    val take : 'a t -> 'a
    (** Block while the slot is empty. *)

    val try_take : 'a t -> 'a option
  end

  (** Counting semaphore. *)
  module Semaphore : sig
    type t

    val create : int -> t
    val acquire : t -> unit
    val try_acquire : t -> bool
    val release : t -> unit
    val value : t -> int
  end

  (** Reader/writer lock, writer-preferring. *)
  module Rwlock : sig
    type t

    val create : unit -> t
    val read_lock : t -> unit
    val read_unlock : t -> unit
    val write_lock : t -> unit
    val write_unlock : t -> unit
    val with_read : t -> (unit -> 'a) -> 'a
    val with_write : t -> (unit -> 'a) -> 'a
  end

  (** Cyclic barrier for a fixed party count. *)
  module Barrier : sig
    type t

    val create : parties:int -> t

    val await : t -> int
    (** Block until all parties have arrived; returns the arrival index
        (0 for the first arriver, parties-1 for the releasing one).  The
        barrier resets for reuse. *)
  end

  (** Multilisp-style futures: a computation running in parallel whose
      value is claimed with [touch] (the paper contrasts MP's
      continuation-based threads with Multilisp's future-centric model;
      futures are a few lines on top of fork + ivar). *)
  module Future : sig
    type 'a t

    val spawn : (unit -> 'a) -> 'a t
    val of_value : 'a -> 'a t

    val touch : 'a t -> 'a
    (** Block until the future's value is available. *)

    val poll : 'a t -> 'a option
    val map : ('a -> 'b) -> 'a t -> 'b t
  end

  (** Countdown latch. *)
  module Countdown : sig
    type t

    val create : int -> t
    val count_down : t -> unit
    val await : t -> unit
    val remaining : t -> int
  end
end
