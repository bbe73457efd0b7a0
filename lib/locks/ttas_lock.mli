(** Test-and-test-and-set lock: spins on a plain read and only attempts the
    bus-locking exchange when the lock looks free, reducing the coherence
    traffic that the naive TAS spin generates (Anderson 1990, the paper's
    reference for "a more efficient spin"). *)

module Make (P : Mp.Mp_intf.PRIMS) : Lock_intf.LOCK_EXT
