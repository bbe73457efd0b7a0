(** ML Threads — the Cooper–Morrisett package (CMU-CS-90-186) that the
    paper reports was rebuilt over MP: "MP has been used to build an
    enhanced and portable version of ML Threads".

    The historical interface: [fork] returns a thread handle, threads end
    by returning or calling [exit]; mutexes with [acquire]/[try_acquire]/
    [release]; condition variables with [wait]/[signal]/[broadcast].
    There is no join — rendezvous is built from mutexes and conditions (or
    see {!Mpsync.Sync}).  The mutex and condition are {!Park}'s, shared
    with {!M3_thread}. *)

module Make (P : Mp.Mp_intf.PLATFORM_INT) (S : Thread_intf.SCHED) : sig
  type thread

  val fork : (unit -> unit) -> thread
  val exit : unit -> 'a
  (** Terminate the calling thread immediately.  Never returns. *)

  val yield : unit -> unit

  val self : unit -> thread
  (** Inside a forked thread, the handle [fork] returned for it. *)

  val equal : thread -> thread -> bool
  val id : thread -> int

  type mutex

  val mutex : unit -> mutex

  val acquire : mutex -> unit
  (** Block (not spin) until the mutex is owned by the calling thread. *)

  val try_acquire : mutex -> bool
  val release : mutex -> unit
  val with_mutex : mutex -> (unit -> 'a) -> 'a

  type condition

  val condition : unit -> condition

  val wait : condition * mutex -> unit
  (** Atomically release the mutex and wait; re-acquires before returning
      (re-check the predicate). *)

  val signal : condition -> unit
  val broadcast : condition -> unit
end
