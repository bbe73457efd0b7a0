(** Machine models for the simulated shared-memory multiprocessor.

    Two presets reproduce the paper's evaluation hardware from the constants
    the paper itself reports:

    {ul
    {- {!sequent}: the 16-processor Sequent Symmetry S81 — 16 MHz Intel
       80386 processors, a shared bus with "maximum achievable bandwidth of
       about 25 MB/sec", and MP mutex lock+unlock costing 46 µs.}
    {- {!sgi}: the SGI 4D/380S — "much faster processors but only slightly
       larger bus bandwidth" (≈30 MB/s), lock+unlock 6 µs.  On this machine
       the paper found that "main-memory contention problems swamped all
       other effects".}} *)

(** Interconnect topology: the [procs] are grouped into [nodes]
    contiguous, equal-sized nodes.  Each node has a private local bus of
    [bus_bytes_per_cycle] bandwidth, and the nodes share one FCFS
    inter-node link.  Node-local traffic (allocation, uncontended lock
    words) only touches the local bus; a write to a word cached on another
    node crosses the local bus and then the link, paying
    [link_latency_cycles] plus the transfer at [link_bytes_per_cycle], and
    invalidates the remote copies (counted under ["cache.invalidations"]).
    One node is the flat bus: a single FCFS bus shared by every proc, whose
    link is never reached (the Sequent/SGI shape; all goldens are pinned
    under it). *)
type machine = {
  nodes : int;
  link_latency_cycles : int;
  link_bytes_per_cycle : float;
}

(** How the simulator runs; virtual time is bit-identical in every mode. *)
type mode =
  | Run_ahead
      (** A charge is applied inline, with no effect-handler suspension,
          whenever the proc would be re-dispatched at once anyway; lock
          episodes, work programs and idle polls park once and are
          serviced by the scheduler at the reference positions. *)
  | Checked
      (** [Run_ahead], checking as it runs: the ready-heap invariants
          after every scheduler operation, a second evaluation of every
          real idle poll's predicate, which must agree, and the sleep
          rule: sleepers are still polled every quantum, and each poll
          the rule skips must fail.  O(procs) per check. *)
  | Reference
      (** The always-suspend oracle of the twin tests: one suspension per
          charge, per spin probe and per idle quantum. *)

type t = {
  name : string;
  procs : int;  (** physical processors *)
  mhz : float;  (** clock: cycles per microsecond *)
  cpi : float;  (** cycles per abstract workload instruction *)
  bus_bytes_per_cycle : float;
      (** usable shared-bus bandwidth (per node) *)
  machine : machine;  (** interconnect topology; one node in the presets *)
  alloc_cycles_per_word : float;  (** CPU cost of heap allocation *)
  try_lock_cycles : int;  (** one test-and-set attempt *)
  unlock_cycles : int;
  spin_retry_cycles : int;
      (** delay between spin probes, before the simulator's fixed
          deterministic jitter ({!Mp_sim}'s [retry_delay]) *)
  gc_region_words : int;  (** shared allocation region before a GC *)
  gc_cycles_per_word : float;  (** copy cost per surviving word *)
  gc_fixed_cycles : int;  (** synchronization + redivision overhead *)
  gc_minor_fixed_cycles : int;
      (** fixed cost of one proc-local minor collection ([minor_pp]) *)
  gc_barrier_cycles : int;
      (** per-collector synchronization surcharge of a parallel
          stop-the-world collection ([par_stw]) *)
  gc : Gc_model.t;
      (** GC cost model ({!Gc_model.t}): [stw] (default, golden-pinned),
          [par_stw[:N]] or [minor_pp].  Like [sched], the selector does
          not change the machine [name]; sweeps label samples with the
          model separately. *)
  acquire_proc_cycles : int;  (** OS cost of acquiring a proc (§3.1) *)
  mode : mode;  (** [Run_ahead] in every preset *)
  sched : string;
      (** Thread-scheduler policy for pools run on this machine, in
          {!Mpthreads.Sched_policy.of_string} syntax
          (["fifo"|"lifo"|"distributed"|"ws"|"micropools[:K]"]).  The
          simulator itself does not interpret it — sweeps
          ({!Report.Experiments}) parse it and pass the policy to
          [Sched_thread.with_pool].  Default ["distributed"], the
          golden-pinned historical policy. *)
}

(** Constants both presets share: [word_bytes] 4, [lock_bus_bytes] (the
    bus traffic of one lock RMW) 8, [idle_quantum_cycles] (the idle polling
    granularity) 2,000 and [gc_survival] (the fraction of the region live
    at a collection) 0.03. *)

val word_bytes : int
val lock_bus_bytes : int
val idle_quantum_cycles : int
val gc_survival : float

val sequent : ?procs:int -> ?sched:string -> unit -> t
val sgi : ?procs:int -> ?sched:string -> unit -> t

val numa : ?nodes:int -> ?procs_per_node:int -> ?sched:string -> unit -> t
(** A hierarchical machine of [nodes] Sequent-class nodes ([procs_per_node]
    procs each, defaults 4x16): per-node buses with the Sequent's 25 MB/s
    bandwidth, joined by a single shared link of twice that bandwidth plus
    a 120-cycle crossing latency.  Name: ["numa:<nodes>x<procs>"]. *)

val of_machine_string : ?sched:string -> ?gc:Gc_model.t -> string -> (t, string) result
(** Parse a machine selector: ["sequent"], ["sgi"], ["numa:<nodes>x<procs>"]
    (e.g. [numa:4x16]), or ["numa1024"], the canonical 1024-proc preset
    (16 nodes of 64 procs).  [?gc] selects the GC cost model of the
    resulting config (default {!Gc_model.default}). *)

val of_machine_string_exn : ?sched:string -> ?gc:Gc_model.t -> string -> t

val nodes : t -> int
(** Number of nodes (1 in the Sequent and SGI presets). *)

val procs_per_node : t -> int
(** Procs are grouped into contiguous blocks of this size, so a pool
    acquiring procs [0..k-1] spans as few nodes as possible. *)

val cycles_to_seconds : t -> int -> float
val seconds_to_cycles : t -> float -> int
