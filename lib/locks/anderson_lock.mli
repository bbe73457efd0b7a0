(** Anderson's array-based queue lock (Anderson 1990): each waiter spins on
    its own slot of a flag array, eliminating the coherence storm on a single
    location.  Capacity-bounded: at most [slots] procs may contend at once.
    Queue-style: the releasing proc is expected to be the holder. *)

module Make (P : Mp.Mp_intf.PRIMS) : sig
  include Lock_intf.LOCK_EXT

  val mutex_lock_sized : slots:int -> mutex_lock
  (** Lock supporting up to [slots] simultaneous contenders ([mutex_lock]
      uses 64). *)
end
