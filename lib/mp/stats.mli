(** Execution statistics reported uniformly by every MP backend.

    The simulator fills every field from its virtual-time accounting.
    Real backends fill what the host can measure — [elapsed], per-proc
    [busy]/[idle], [lock_spins] (counted by the lock implementations),
    [alloc_words] (per-domain minor-heap deltas on the domains backend)
    and [gc_count] (host [Gc.quick_stat] collection deltas over the run)
    — and leave the purely-simulated fields (gc pause model, bus model)
    at zero. *)

type proc_stats = {
  mutable busy : float;  (** seconds spent running client code *)
  mutable idle : float;  (** seconds spent idle, waiting for work *)
  mutable gc_wait : float;  (** seconds stalled at GC barriers *)
  mutable queue_wait : float;
      (** seconds blocked on full/empty bounded queues (reported through
          [Work.note_queue_wait] by the queue implementations) *)
  mutable lock_spins : int;  (** failed [try_lock] attempts *)
  mutable alloc_words : int;  (** words allocated by this proc *)
}

type t = {
  platform : string;
  procs : int;  (** number of procs configured *)
  elapsed : float;  (** seconds (virtual on the simulator, wall otherwise) *)
  gc_time : float;  (** total collection pause seconds (simulator only) *)
  gc_count : int;  (** collections during the run (minor + major) *)
  bus_busy : float;  (** seconds the shared memory bus was occupied *)
  bus_bytes : int;  (** total bytes transferred over the bus *)
  sched_decisions : int;
      (** {e host-side}: scheduler decisions the simulator's loop actually
          made during the run — dispatches and idle polls it ran, not the
          polls a sleeping poller skipped (0 on real backends).  Unlike
          every field above, this and the two below measure the cost of
          running the simulation, not simulated time. *)
  suspensions : int;
      (** host-side: effect-handler suspensions performed during the run;
          busy procs run ahead past sleeping pollers without one *)
  heap_ops : int;
      (** host-side: ready-heap pushes, pops, re-keys (one per failed idle
          poll that keeps its poller in the heap) and decreases (a wake
          that brings a sleeper forward from its timer deadline) during
          the run *)
  per_proc : proc_stats array;
}

val make_proc_stats : unit -> proc_stats
val zero : platform:string -> procs:int -> t

val host_collections : unit -> int
(** Host collections (minor + major) since program start.  [Gc.quick_stat]
    reports process-wide totals on OCaml 5, so a real backend's run delta
    (its [gc_count]) covers every domain the run used. *)

val idle_fraction : t -> float
(** Mean fraction of proc time spent idle (idle / (busy+idle+gc_wait)),
    the quantity behind the paper's "average processor idle rates above
    50%" claim for [simple]. *)

val bus_utilization : t -> float
(** bus_busy / elapsed. *)

val bus_mb_per_sec : t -> float
(** Mean bus traffic in MB/s: bus_bytes / elapsed (E5). *)

val total_alloc_words : t -> int
val total_lock_spins : t -> int

val total_queue_wait : t -> float
(** Seconds procs spent blocked on bounded queues, summed over procs —
    the backpressure share of an open-loop server's tail. *)

val pp : Format.formatter -> t -> unit
