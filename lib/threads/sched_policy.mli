(** The scheduler-policy family: the selectable scheduling axis.

    The paper observes that "thread scheduling policy can be changed simply
    by varying the functor's argument"; this module makes the policy a
    measured axis rather than an implementation constant.  A {!t} names a
    policy; {!Make} turns it into a concrete {!Thread_intf.SCHEDULER} over
    a platform, which {!Sched_thread.with_pool} consumes via its [?sched]
    parameter.

    Policies:
    - [Fifo] — one central queue, enqueue back / dequeue front, every proc
      contending on its single lock.  The baseline stealing is measured
      against.
    - [Lifo] — one central queue, enqueue and dequeue at the front.
      Exactly the historical [~run_queue:`Central] behavior.
    - [Distributed] (default) — the pre-existing per-proc locked deques
      with rotating-scan steal-one.  Bit-identical goldens.
    - [Ws] — multiprogrammed work stealing: per-proc lock-free SPMC
      steal-half queues ({!Queues.Spmc_queue}) whose owner pops its
      newest item (depth-first fork/join, whose untouched children run in
      the parent's fiber) while thieves take the oldest half, yields at the
      oldest end, randomized victim selection from a
      deterministic per-proc stream, batch transfer.
      Operations are charged through {!Locks.Charged_prims}, so the
      simulator prices steal traffic on the bus.
    - [Micropools k] — procs partitioned into [k] pinned pools; work never
      migrates across pools. *)

type t = Fifo | Lifo | Distributed | Ws | Micropools of int

val default : t
(** [Distributed]. *)

val to_string : t -> string
(** ["fifo"], ["lifo"], ["distributed"], ["ws"], ["micropools:<k>"]. *)

val of_string : string -> (t, string) result
(** Parses {!to_string}'s forms (case-insensitive); also accepts
    ["default"] for [Distributed], ["steal"] for [Ws] and bare
    ["micropools"] for [Micropools 2]. *)

val of_string_exn : string -> t
(** @raise Invalid_argument on an unknown policy name. *)

val names : string list
(** Accepted spellings, for usage strings. *)

module Make (P : Mp.Mp_intf.PLATFORM_INT) : sig
  val instance : t -> (module Thread_intf.SCHEDULER)
  (** The policy's ready-queue implementation over [P]. *)
end
