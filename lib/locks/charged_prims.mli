(** Atomic primitives that charge virtual time through an MP platform's
    [Work] interface before performing the real operation.

    Instantiating a lock algorithm with these on the simulated backend
    reproduces the relative costs that Anderson (1990) — the paper's
    reference for spin-lock alternatives — measured: a read probe is cheap
    (a cache hit while spinning), an RMW probe is expensive (a bus
    transaction), so TAS degrades under contention while TTAS/backoff and
    the queue locks spin locally.  On the simulator the charge is a
    suspension point and the operation itself then executes without
    interleaving, so it is atomic in virtual time. *)

module Make (P : Mp.Mp_intf.PLATFORM) : sig
  include Mp.Mp_intf.PRIMS
  (** A read costs 2 cycles, a write 20, an RMW (exchange,
      compare_and_set, fetch_and_add) 60 plus a bus transaction on the
      cell's line, and a pause unit 10.  [unsafe_peek] is free and leaves
      the line alone, as scheduler idle predicates require; the [ws]
      steal sweep peeks the same way to skip empty-looking queues, and
      re-validates a queue it probes with a charged [get] and CAS.
      [on_spin] counts under ["lock.prims_spins"] in the platform's
      registry. *)
end
