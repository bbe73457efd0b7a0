(** Ticket lock: FIFO-fair; each waiter spins on the shared now-serving
    counter.  [try_lock] succeeds only when no one holds or awaits the lock.
    Queue-style: the releasing proc is expected to be the holder. *)

module Make (P : Mp.Mp_intf.PRIMS) : Lock_intf.LOCK_EXT
