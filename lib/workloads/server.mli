(** Open-loop request-serving workload with latency-tail reporting.

    A seeded virtual-time arrival process (Poisson or bursty/MMPP) feeds a
    CML-channel pipeline — accept → shard (hash over bounded worker
    queues) → work → reply — built on Cml/Sync/Sched_thread, so it runs
    unchanged on all four backends.  Latency is measured open-loop, from
    each request's intended arrival instant, and recorded in a
    constant-space {!Obs.Histogram}; the p99-vs-offered-load curve shows a
    saturation knee once the bounded shard queues back the accepter up
    behind the arrival clock. *)

type arrival =
  | Poisson
  | Bursty of { factor : float; p_switch : float }
      (** two-state MMPP with the same mean load as [Poisson]; rate
          toggles between [rate*factor] and [rate/factor] with
          probability [p_switch] per arrival *)

type config = {
  requests : int;
  arrival : arrival;
  rate : float;  (** mean offered load, requests per (virtual) second;
                     non-finite or ≤ 0 ⇒ one closed burst at t = 0 *)
  shards : int;
  workers_per_shard : int;
  queue_cap : int;
  seed : int;
  record_order : bool;
}

val default : config

val arrivals : config -> float array
(** Intended arrival instants (seconds from run start, ascending) — a pure
    function of the config, exposed for tests. *)

val service_mean_instrs : int
val shard_of : config -> int -> int
val service_instrs : config -> int -> int
(** Per-request shard and service demand: pure functions of the id, the
    demand exponential with mean [service_mean_instrs] (20,000). *)

type result = {
  completed : int;
  elapsed : float;
  throughput : float;
  hist : Obs.Histogram.t;  (** latency in nanoseconds *)
  p50 : int;
  p95 : int;
  p99 : int;
  p999 : int;
  queue_wait : float;
      (** producer seconds blocked on full shard queues
          ([Stats.total_queue_wait]) *)
  order : int list array;
      (** per-shard processing order when [record_order] *)
}

module Make (P : Mp.Mp_intf.PLATFORM_INT) : sig
  val run : procs:int -> ?quantum:float -> ?sched:Mpthreads.Sched_policy.t ->
    config -> result
  (** One pipeline run under [procs] procs.  Deterministic on the
      simulator for a fixed (config, sched, procs, machine) cell.  The
      result's latency histogram belongs to this instance and is reset at
      each run's start. *)
end
