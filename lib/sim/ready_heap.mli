(** Indexed binary min-heap of ready procs for the simulator's event loop.

    Keys are [(clock, id)] pairs ordered lexicographically — earliest
    virtual clock first, lowest proc id among equals — which is exactly the
    deterministic pick order of the O(P) array scan it replaces, so
    switching the scheduler to this heap cannot change virtual-time
    results.  The id universe is fixed at creation ([0 .. ids-1], the proc
    ids); a position index over it gives O(1) membership and supports the
    scheduler's invariant checks.  All storage is preallocated: no
    allocation on push or {!pop_unchecked}.

    Internally the key is packed as [clock * ids + id] so sift comparisons
    are single integer compares; this bounds clocks at [max_int / ids]
    cycles (~2^58 at 16 procs — centuries of simulated time). *)

type 'a t

exception Duplicate_id
(** Raised by {!push} when the id is already in the heap: a proc can be
    ready at most once. *)

val create : ids:int -> dummy:'a -> 'a t
(** [create ~ids ~dummy] accepts ids in [0 .. ids-1].  [dummy] fills unused
    value slots (never returned). *)

val push : 'a t -> clock:int -> id:int -> 'a -> unit
val pop : 'a t -> 'a option
(** Remove and return the value with the minimum [(clock, id)] key. *)

val pop_unchecked : 'a t -> 'a
(** {!pop} without the option wrapper (and without its allocation).
    Undefined on an empty heap — guard with {!is_empty}.  This is the
    scheduler's per-dispatch call. *)

val min_key : 'a t -> (int * int) option
(** The minimum key, without removing it. *)

val precedes_min : 'a t -> clock:int -> id:int -> bool
(** [true] iff the heap is empty or [(clock, id)] orders strictly before
    the minimum key — the run-ahead fast path's allocation-free "would
    this proc be re-picked" probe. *)

val mem : 'a t -> id:int -> bool
val length : 'a t -> int
val is_empty : 'a t -> bool

val ops : 'a t -> int
(** Pushes + pops since creation or the last {!clear} (host-side cost
    counter). *)

val clear : 'a t -> unit

val valid : 'a t -> bool
(** Heap order and index consistency hold; O(n).  For tests and the
    [debug] config knob. *)
