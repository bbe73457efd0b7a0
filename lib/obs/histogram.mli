(** Constant-space log-bucketed latency histogram.

    Values (non-negative ints — nanoseconds or cycles by convention) below
    2{^sub_bits} land in exact unit buckets; above that each power-of-two
    range splits into [sub] = 2{^sub_bits} sub-buckets, bounding the relative
    width of any bucket — and therefore the error of any quantile read off a
    bucket bound — by 1/[sub] (6.25%).  The bucket array covers the whole
    non-negative int range, so a histogram's footprint is fixed (~1k cells)
    no matter how many values it absorbs: millions of simulated requests
    record in constant space.

    Cells are [Atomic], so concurrent recorders on the domains backend are
    safe. *)

type t

val sub : int
(** Sub-buckets per power of two (16). *)

val create : unit -> t
val add : t -> int -> unit
(** Record a value; negatives are clamped to 0. *)

val count : t -> int
val sum : t -> int
val max_value : t -> int
val mean : t -> float

val quantile : t -> float -> int
(** [quantile t q] for q in [0,1]: inclusive upper bound of the bucket
    holding the rank-⌈q·count⌉ value, clamped to the recorded max — an
    overestimate of the exact order statistic by at most one bucket width
    (relative error ≤ 1/{!sub}).  0 when empty. *)

val reset : t -> unit

val nonzero_buckets : t -> (int * int) list
(** [(bucket_lower_bound, count)] for every non-empty bucket, ascending —
    a deterministic digest of the full distribution. *)
