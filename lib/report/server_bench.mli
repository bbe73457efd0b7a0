(** Sweep driver for the open-loop server workload (exhibit E9): a
    (scheduler × procs) latency-tail grid at a fixed offered load and a
    per-scheduler saturation ramp, on private simulated machines fanned
    out through {!Exec.Job_pool} — deterministic for any [jobs]. *)

type cell = {
  machine : string;
  sched : string;
  procs : int;
  rate : float;  (** offered load, requests per virtual second *)
  requests : int;
  completed : int;
  elapsed : float;
  throughput : float;
  p50_ns : int;
  p95_ns : int;
  p99_ns : int;
  p999_ns : int;
  queue_wait : float;  (** producer seconds blocked on full shard queues *)
  hist : Obs.Histogram.t;  (** the cell's latency histogram, ns *)
  suspensions : int;
      (** host-side: the simulator's effect suspensions over the run *)
}

val schedulers : string list
(** ["fifo"; "distributed"; "ws"] — central-queue baseline, the
    golden-pinned default, and work stealing. *)

val run_cell :
  machine:string -> config:Workloads.Server.config -> string * int * float ->
  cell
(** [run_cell ~machine ~config (sched, procs, rate)] runs [config] at
    offered load [rate] on a private machine built from the
    {!Sim.Sim_config.of_machine_string} selector [machine]. *)

val golden_line : cell -> string
(** The cell's [GOLDEN server ...] line: the latency histogram's count,
    sum and tail quantiles, elapsed, throughput and queue wait — the
    values the server golden table pins. *)

val grid : ?quick:bool -> ?jobs:int -> ?machine:string -> unit -> cell list
(** One cell per (scheduler, procs) at the default offered load, procs
    ranging over 1, 4 and 16, each clamped to the machine's procs; [jobs]
    (default 1) fans the cells across host domains. *)

val ramp : ?quick:bool -> ?jobs:int -> ?machine:string -> unit -> cell list
(** Offered-load ramp per scheduler at 16 procs, or the machine's procs if
    it has fewer. *)

val knee : cell list -> sched:string -> float option
(** Lowest ramp rate whose p99 exceeds 5x the lightest-load p99 —
    [None] if the scheduler never saturates within the ramp. *)

val print_server : Format.formatter -> cell list -> cell list -> unit
(** Render grid + ramp tables and the per-scheduler knees. *)

val to_json : quick:bool -> cell list -> cell list -> string
(** The BENCH_server.json document (schema mp-repro/server/v1). *)
