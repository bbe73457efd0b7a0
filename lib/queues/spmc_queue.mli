(** Lock-free single-producer / multi-consumer FIFO queue with steal-half.

    The ready-queue behind the work-stealing scheduler policy: the owning
    proc [push]es at the tail; the oldest element is claimed — by the owner's
    [pop] or by a thief's [steal_half] — with a CAS on the head index.
    [steal_half] transfers the oldest ceil(n/2) elements with a {e single}
    CAS, so a thief pays one bus transaction per batch instead of one per
    element (a Chase-Lev steal-one), amortizing the traffic inflicted on
    the victim under heavy stealing.

    Monotone integer indices over a growable circular buffer rule out ABA;
    growth is owner-only grow-by-copy and never mutates the old buffer, so
    in-flight thieves either claim successfully or fail their CAS and
    discard what they read.

    The algorithm is a functor over the platform's atomic cells
    ({!Mp.Mp_intf.PRIMS}) so the identical text runs over [Stdlib.Atomic]
    ({!Mp.Mp_intf.Atomic_prims}, the default instance exposed below),
    over charged cells (the simulator prices pops and steals on the bus),
    and over the [mp_check] harness's instrumented cells, whose every
    access is a schedule-exploration serialization point. *)

module Make (A : Mp.Mp_intf.PRIMS) : sig
  type 'a t

  val create : unit -> 'a t

  val push : 'a t -> 'a -> unit
  (** Owner only. *)

  val pop : 'a t -> 'a option
  (** Any consumer: the oldest element, or [None] when empty.  Retries
      internally when the claim is lost to a concurrent consumer. *)

  val steal_half : 'a t -> 'a array
  (** Any thread: the oldest ceil(n/2) elements, oldest first, claimed with
      one CAS.  [[||]] when empty or the claim race was lost — the thief is
      expected to try another victim rather than retry here. *)

  val size : 'a t -> int
  (** Racy snapshot of the number of elements (reads are charged when the
      cells are). *)

  val length_hint : 'a t -> int
  (** Like {!size} but through [unsafe_peek]: charge-free and never a
      serialization point.  For telemetry gauges. *)

  val looks_nonempty : 'a t -> bool
  (** Charge-free emptiness hint for scheduler idle predicates. *)
end

(** The default instance over [Stdlib.Atomic]. *)

type 'a t

val create : unit -> 'a t

val push : 'a t -> 'a -> unit
(** Owner only. *)

val pop : 'a t -> 'a option
(** Any consumer: the oldest element, or [None] when empty. *)

val steal_half : 'a t -> 'a array
(** Any thread: the oldest ceil(n/2) elements with one CAS; [[||]] when
    empty or the race was lost. *)

val size : 'a t -> int
(** Racy snapshot of the number of elements. *)

val length_hint : 'a t -> int
(** Charge-free racy length. *)

val looks_nonempty : 'a t -> bool
(** Charge-free emptiness hint. *)
