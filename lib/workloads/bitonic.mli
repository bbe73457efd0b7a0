(** Bitonic sorting networks with adaptivity — reference implementation for
    the [abisort] benchmark (adaptive bitonic sorting of 2^12 integers,
    after Bilardi & Nicolau 1989, via Mohr's Scheme original).

    This is an array formulation: the classic recursive bitonic sort whose
    merge stage short-circuits sub-merges that are already in order — the
    essential adaptivity of Bilardi–Nicolau (which achieves it with bitonic
    trees) expressed on the array representation.  On sorted or
    nearly-sorted inputs the merge does O(n) comparator work instead of
    O(n log n); the full sort remains O(n log² n) comparators worst-case.

    Lengths must be powers of two. *)

val sort : int array -> unit
(** In-place ascending sort. *)

val merge : up:bool -> int array -> int -> int -> unit
(** [merge ~up a lo n] sorts the bitonic segment [a.(lo .. lo+n-1)]
    ascending ([up]) or descending. *)

val half_clean : up:bool -> int array -> int -> int -> bool
(** One comparator column over a bitonic segment; returns whether any
    exchange happened.  Exposed as the parallel merge's building block. *)

val ordered : up:bool -> int array -> int -> int -> bool
(** Is the segment already ordered in the given direction?  (The adaptivity
    test; its scan cost is counted in {!comparators_used}.) *)

val comparators_used : unit -> int
(** Comparator applications since the last {!reset_counters} (adaptivity
    instrumentation; the benchmark cost model charges n log² n comparators
    analytically and does not read it). *)

val reset_counters : unit -> unit
