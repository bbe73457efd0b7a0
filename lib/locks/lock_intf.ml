(** Interfaces for the lock-algorithm collection.

    Every algorithm is a functor over {!Mp.Mp_intf.PRIMS}, the handful of
    atomic memory operations the paper's §5 identifies as the
    machine-dependent core of [Lock] (atomic exchange on the
    88100/Sequent, hardware lock registers on the SGI).  Instantiating
    with {!Mp.Mp_intf.Atomic_prims} gives real locks over [Stdlib.Atomic];
    the simulator instantiates the same algorithm text with charged,
    virtual-time primitives ({!Charged_prims}), so contention behaviour
    can be studied deterministically. *)

(** The paper's [LOCK] plus introspection used by tests and benches. *)
module type LOCK_EXT = sig
  include Mp.Mp_intf.LOCK

  val holder_must_unlock : bool
  (** [false] for the paper-conformant locks (any proc may [unlock]); [true]
      for the queue locks (ticket/Anderson/CLH), which hand the lock to the
      next waiter and therefore assume the releasing proc is the holder. *)
end
