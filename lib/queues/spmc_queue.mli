(** Lock-free single-producer / multi-consumer work-stealing queue with
    steal-half.

    The ready queue behind the work-stealing scheduler policy.  The owning
    proc works at the newest end — [push] and [pop] are last-in,
    first-out, so a fork/join tree runs depth-first — while thieves take
    from the oldest end: [steal_half] claims the oldest ceil(n/2)
    elements with a {e single} CAS, so a thief pays one bus transaction
    per batch instead of one per element (a Chase-Lev steal-one).  The
    owner can also add at the oldest end with [push_oldest]; the
    scheduler puts yielding threads there.

    The occupied index window is one boxed record, replaced by CAS with a
    fresh record on every transition, owner's and thieves' alike: no ABA,
    and a pop racing a steal for the last element is decided by one CAS.
    Growth is owner-only grow-by-copy that never mutates the old buffer.

    The algorithm is a functor over the platform's atomic cells
    ({!Mp.Mp_intf.PRIMS}) so the identical text runs over [Stdlib.Atomic]
    ({!Mp.Mp_intf.Atomic_prims}, the default instance exposed below),
    over charged cells (the simulator prices pushes, pops and steals on
    the bus), and over the [mp_check] harness's instrumented cells, whose
    every access is a schedule-exploration serialization point. *)

module Make (A : Mp.Mp_intf.PRIMS) : sig
  type 'a t

  val create :
    ?occupied:int Atomic.t -> ?wake:(unit -> unit) -> unit -> 'a t
  (** [occupied], shared by a group of queues, counts the group's
      non-empty queues: the CAS that fills this queue increments it and
      the CAS that takes its last element decrements it.  It is a plain
      host-side atomic, never charged and never a serialization point.
      Defaults to a counter private to this queue.  [wake] (default
      [ignore]) runs right after each fill, with no charge between: the
      platform's [Work.wake_idle] hint for procs idling on [occupied]. *)

  val push : 'a t -> 'a -> unit
  (** Owner only: add at the newest end. *)

  val push_oldest : 'a t -> 'a -> unit
  (** Owner only: add at the oldest end — the next element a steal
      returns and the last the owner pops. *)

  val pop : 'a t -> 'a option
  (** Owner only: the newest element, or [None] when empty.  Retries
      internally when a thief's claim moved the window. *)

  val take_back : 'a t -> 'a -> bool
  (** Owner only: remove [x] (compared physically) if it is still the
      newest element, with the same CAS as {!pop}.  [false], with the
      window unchanged, when [x] is older, absent or already claimed by a
      thief. *)

  val steal_half : 'a t -> 'a array
  (** Any thread: the oldest ceil(n/2) elements, oldest first, claimed with
      one CAS.  [[||]] when empty or the claim race was lost — the thief is
      expected to try another victim rather than retry here. *)

  val size : 'a t -> int
  (** Snapshot of the number of elements (the read is charged when the
      cells are). *)

  val length_hint : 'a t -> int
  (** Like {!size} but through [unsafe_peek]: charge-free and never a
      serialization point.  For telemetry gauges. *)

  val looks_nonempty : 'a t -> bool
  (** Charge-free emptiness hint. *)
end

(** The default instance over [Stdlib.Atomic]. *)

type 'a t

val create : ?occupied:int Atomic.t -> ?wake:(unit -> unit) -> unit -> 'a t
(** [occupied] counts the non-empty queues of a group, and [wake] runs
    after each fill (see {!Make}). *)

val push : 'a t -> 'a -> unit
(** Owner only: add at the newest end. *)

val push_oldest : 'a t -> 'a -> unit
(** Owner only: add at the oldest end. *)

val pop : 'a t -> 'a option
(** Owner only: the newest element, or [None] when empty. *)

val take_back : 'a t -> 'a -> bool
(** Owner only: remove [x] if it is still the newest element. *)

val steal_half : 'a t -> 'a array
(** Any thread: the oldest ceil(n/2) elements with one CAS; [[||]] when
    empty or the race was lost. *)

val size : 'a t -> int
(** Snapshot of the number of elements. *)

val length_hint : 'a t -> int
(** Charge-free length. *)

val looks_nonempty : 'a t -> bool
(** Charge-free emptiness hint. *)
