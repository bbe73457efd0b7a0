(** Experiment drivers: everything needed to regenerate the paper's
    evaluation (see DESIGN.md's per-experiment index E1–E7).

    The sweeps run the five Figure-6 benchmarks plus [seq] on the simulated
    Sequent Symmetry (and the SGI model for E7), collect per-run statistics,
    and verify every parallel result against the sequential reference
    implementations. *)

type sample = {
  machine : string;
      (** machine name: "sequent", "sgi", or a "numa:<nodes>x<procs>" *)
  sched : string;  (** scheduling policy the cell ran under *)
  gc_model : string;  (** GC cost model ({!Sim.Gc_model.to_string}) *)
  bench : string;
  procs : int;
  elapsed : float;  (** virtual seconds *)
  seq_base : float;
      (** [seq] only: elapsed of the same [procs] copies on one proc, the
          self-relative baseline; [elapsed] for the other benches *)
  gc : float;
  gc_count : int;  (** minor + major collections *)
  gc_minor : int;  (** proc-local minor collections (0 under stw/par_stw) *)
  gc_major : int;  (** stop-the-world collections *)
  idle : float;  (** mean idle fraction *)
  bus_mb : float;  (** bus traffic MB/s *)
  bus_util : float;
  spins : int;
  alloc_words : int;
  checksum : int;
  verified : bool;  (** checksum matches the sequential reference *)
  makespan_cycles : int;  (** the measured run's machine totals: *)
  bus_bytes : int;
  remote_bytes : int;  (** crossed the inter-node link *)
  invalidations : int;
  gc_cycles : int;  (** pause cycles *)
  decisions : int;  (** scheduler decisions (host-side, deterministic) *)
  suspensions : int;  (** effect-handler suspensions (likewise) *)
  coalesced : int;  (** charges absorbed by run-ahead (likewise) *)
  heap_ops : int;  (** ready-heap pushes, pops and re-keys (likewise) *)
}

val run_cell :
  Sim.Sim_config.t -> string * int -> sample * float * (string * int) list
(** [run_cell config (bench, procs)] runs one grid cell on a private
    machine built from [config], under the scheduling policy
    [config.sched], and verifies its result.  Beside the sample it returns
    the host CPU seconds of the measured run and the cell's counter
    registry ({!Obs.Counters.dump}); both stay out of the sample, which is
    a pure function of the cell.  A [seq] cell first runs its 1-proc
    baseline on the same machine; only the measured run is timed and
    counted.  Inside {!trace} the cell's telemetry streams to the trace
    file. *)

val sweep :
  ?plist:int list ->
  ?jobs:int ->
  ?sched:string ->
  ?gc:string ->
  machine:string ->
  unit ->
  sample list
(** The six-benchmark grid over [plist] on any
    {!Sim.Sim_config.of_machine_string} selector (["sequent"], ["sgi"],
    ["numa:<nodes>x<procs>"], ["numa1024"]), one {!run_cell} per cell.
    [plist] is clamped to the machine size and always gains the 1-proc
    baseline every speedup divides by; machines larger than 16 procs
    default to the powers-of-four list [1; 4; 16; 64; 256; 1024], smaller
    ones to Figure 6's x axis [1; 2; 4; 6; ...; 16].

    [sched] is the scheduling policy for every pool in the sweep, in
    {!Mpthreads.Sched_policy.of_string} syntax; default ["distributed"].
    [gc] is the GC cost model in {!Sim.Gc_model.of_string} syntax; default
    ["stw"].

    [jobs] fans the cells across that many host domains via
    {!Exec.Job_pool}; results are merged back in grid order, so the
    returned samples (and all output rendered from them) are identical for
    every [jobs] value.  Defaults to 1; inside {!trace} the cells run one
    at a time. *)

val gc_sweep :
  ?plist:int list ->
  ?jobs:int ->
  ?sched:string ->
  ?machine:string ->
  unit ->
  (string * sample list) list
(** One {!sweep} per collector (["stw"; "par_stw"; "minor_pp"]) on the
    same machine (default ["sequent"]) and schedule, for the paper-§6.2
    "how much does the sequential stop-the-world collector cost us"
    replay (E8). *)

val trace : string -> (unit -> 'a) -> 'a
(** [trace path f] runs [f] with every cell's telemetry (scheduler, proc,
    lock, GC and client-layer events) streaming to [path] as JSONL, one
    event per line; closes the file on the way out (even on
    exceptions). *)

val speedup : sample list -> bench:string -> procs:int -> float
(** Self-relative speedup vs the 1-proc sample of the same benchmark. *)

val speedup_no_gc : sample list -> bench:string -> procs:int -> float
(** Speedup with collection time excluded from both runs (E6). *)

(* Section printers (E-numbers from DESIGN.md). *)

val print_fig6 : Format.formatter -> sample list -> unit
val print_idle : Format.formatter -> sample list -> unit
val print_bus : Format.formatter -> sample list -> unit
val print_gc_ablation : Format.formatter -> sample list -> unit

(** Render a {!gc_sweep}: per-benchmark speedup curves laid side by side
    per collector, plus a collector-accounting table at max procs (E8). *)
val print_gc_models : Format.formatter -> (string * sample list) list -> unit
val print_lock_latency : Format.formatter -> unit
val print_portability : Format.formatter -> unit
val print_sgi : Format.formatter -> sample list -> unit
