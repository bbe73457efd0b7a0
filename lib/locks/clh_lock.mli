(** CLH queue lock: waiters form an implicit linked list and each spins on
    its predecessor's node, giving purely local spinning and FIFO order.
    Queue-style: the releasing proc is expected to be the holder. *)

module Make (P : Mp.Mp_intf.PRIMS) : Lock_intf.LOCK_EXT
