(** Spinning reader/writer lock over the atomic primitives — one of §3.3's
    "more elaborate synchronization constructs" built at the lock level
    rather than the thread level (compare {!Mpsync.Sync.Rwlock}, which
    blocks threads instead of spinning procs).

    A single counter cell encodes the state: -1 = write-locked, 0 = free,
    n>0 = n active readers.  Writers spin for exclusivity; readers spin
    while a writer holds the lock. *)

module Make (P : Mp.Mp_intf.PRIMS) : sig
  type t

  val create : unit -> t
  val read_lock : t -> unit
  val try_read_lock : t -> bool
  val read_unlock : t -> unit
  val write_lock : t -> unit
  val try_write_lock : t -> bool
  val write_unlock : t -> unit
  val readers : t -> int
  (** Current reader count (-1 when write-locked); racy snapshot. *)
end
