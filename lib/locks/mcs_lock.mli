(** MCS queue lock (Mellor-Crummey & Scott): waiters spin on a flag in
    their own queue node, the release hands the lock to the explicit
    successor.  Purely local spinning like CLH, but the queue is linked
    forward, which is the variant used on machines without coherent
    caches.  Queue-style: the releasing proc is expected to be the
    holder. *)

module Make (P : Mp.Mp_intf.PRIMS) : Lock_intf.LOCK_EXT
