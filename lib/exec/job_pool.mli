(** Domain-parallel job pool for independent simulator runs.

    The sweep drivers (experiment grids, golden generation,
    lock-comparison sweeps) are embarrassingly parallel: every cell
    instantiates its own generative [Mp_sim] machine, so cells share no
    simulator state.  This pool fans such cells across OCaml 5 host
    domains: the caller and the spawned workers claim jobs from one
    shared atomic next-index.

    Determinism: jobs carry their list index and results are merged back
    by index, so [map ~jobs:n f xs] returns exactly [List.map f xs] for
    every [n] — output order never depends on domain scheduling.  With
    [jobs <= 1] [f] runs inline on the calling domain. *)

val map : jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map ~jobs f xs] = [List.map f xs], evaluating up to [jobs] elements
    concurrently on separate domains.  Exceptions propagate: the raise
    from the lowest-indexed failing job is re-raised on the caller after
    all domains join.  [f] must not assume it runs on the calling domain
    when [jobs > 1]; any domain-local state (e.g. the engine's suspension
    counter) is per-job-correct because a job runs entirely on one
    domain. *)
