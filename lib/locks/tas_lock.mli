(** Test-and-set spin lock: the paper's baseline [Lock] — "mutex locks are
    one-bit shared memory locations that can be atomically tested and set",
    with [lock] exactly the naive spin
    [while not (try_lock l) do () done]. *)

module Make (P : Mp.Mp_intf.PRIMS) : Lock_intf.LOCK_EXT
