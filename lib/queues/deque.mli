(** Array-based double-ended queue.

    Building block of the distributed run queue ({!Multi_queue}): the owning
    proc pushes and pops at the front (LIFO, cache-friendly), thieves steal
    from the back (oldest, largest work units first).  Not thread-safe on its
    own; callers lock. *)

type 'a t

val create : unit -> 'a t
val push_front : 'a t -> 'a -> unit
val push_back : 'a t -> 'a -> unit

val pop_front : 'a t -> 'a
(** @raise Queue_intf.Empty when empty. *)

val pop_back : 'a t -> 'a
(** @raise Queue_intf.Empty when empty. *)

val pop_front_opt : 'a t -> 'a option
val pop_back_opt : 'a t -> 'a option
val length : 'a t -> int
val is_empty : 'a t -> bool
