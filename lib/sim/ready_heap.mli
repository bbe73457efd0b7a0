(** Indexed binary min-heap of ready proc ids for the simulator's event loop.

    Keys are [(clock, id)] pairs ordered lexicographically — earliest
    virtual clock first, lowest proc id among equals — which is exactly the
    deterministic pick order of the O(P) array scan it replaces, so
    switching the scheduler to this heap cannot change virtual-time
    results.  The id universe is fixed at creation ([0 .. ids-1], the proc
    ids); a position index over it finds an id's slot in O(1), which
    {!decrease} needs and the invariant check uses.

    A key is one int, [clock lsl bits lor id] with [bits = ⌈log2 ids⌉], and
    the heap stores nothing else: callers map ids to their own records, and
    no push, {!pop_unchecked}, {!rekey_min} or {!decrease} allocates or
    stores a pointer.  The packing bounds clocks at {!max_clock}: 2^52 cycles at
    1024 ids, about nine years of simulated time at 16 MHz. *)

type t

exception Duplicate_id
(** Raised by {!push} when the id is already in the heap: a proc can be
    ready at most once. *)

val create : ids:int -> t
(** [create ~ids] accepts ids in [0 .. ids-1]. *)

val max_clock : t -> int
(** The largest clock a key can pack: [max_int lsr ⌈log2 ids⌉]. *)

val push : t -> clock:int -> id:int -> unit
(** Raises [Invalid_argument] when [clock] is outside [0 .. max_clock t]
    (its key would wrap and silently reorder dispatch). *)

val pop_unchecked : t -> int
(** Remove and return the id with the minimum [(clock, id)] key.
    Undefined on an empty heap — guard with {!is_empty}. *)

val peek_unchecked : t -> int
(** The id with the minimum key, left in place: the scheduler's
    per-decision call.  Undefined on an empty heap, like {!pop_unchecked}. *)

val rekey_min : t -> clock:int -> unit
(** Move the minimum's id to a new clock in place, by one sift-down: how
    the scheduler keys a failed idle poller at its next poll.  Raises
    [Invalid_argument] on an empty heap, or, as {!push}, for a clock
    outside [0 .. max_clock t]. *)

val decrease : t -> clock:int -> id:int -> unit
(** Move [id], which is in the heap, to the key [(clock, id)], no later
    than its own, by one sift-up: how a wake hint brings a sleeping poller
    forward from its timer deadline.  Counted as one op.  Raises
    [Invalid_argument] when [id] is absent, when the key is later than
    its current one, or, as {!push}, for a clock outside
    [0 .. max_clock t]. *)

val precedes_min : t -> clock:int -> id:int -> bool
(** [true] iff the heap is empty or [(clock, id)] orders strictly before
    the minimum key — the run-ahead fast path's allocation-free "would
    this proc be re-picked" probe.  [clock] must be within the packing
    bound, as for {!push}. *)

val is_empty : t -> bool

val ops : t -> int
(** Pushes, pops, re-keys and decreases since creation or the last
    {!clear} (host-side cost counter). *)

val clear : t -> unit

val valid : t -> bool
(** Heap order and index consistency hold; O(n).  For tests and the
    [Checked] machine mode. *)
