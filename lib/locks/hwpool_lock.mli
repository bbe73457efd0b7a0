(** SGI-style hardware-lock-pool multiplexer (paper §5).

    The MIPS R3000 has no test-and-set instruction; the SGI 4D/380S instead
    provides "a limited number of hardware locks, implemented by a separate
    lock memory and bus", which the runtime uses "to control an extensible
    set of software locks implemented as ML ref cells".  This module
    reproduces that design: a fixed pool of primitive locks guards an
    unbounded population of one-bit software locks, each hashed onto a pool
    entry. *)

module Make (P : Mp.Mp_intf.PRIMS) : sig
  include Lock_intf.LOCK_EXT

  val pool_size : int
  (** Number of simulated hardware locks (64, the order of magnitude of the
      SGI's lock memory). *)

  val pool_index : mutex_lock -> int
  (** Which hardware lock guards this software lock (for collision tests). *)
end
