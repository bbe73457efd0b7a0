(** TTAS with bounded exponential backoff (Anderson 1990) — the kind of
    smarter spin the paper's §3.3 says justifies putting [lock] in the
    interface rather than leaving clients to spin on [try_lock]. *)

module Make (P : Mp.Mp_intf.PRIMS) : Lock_intf.LOCK_EXT
