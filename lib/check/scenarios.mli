(** The scenario corpus wired over a checkable platform instance.

    Each scenario is a self-contained body for {!Mp_check.S.Explore}: it
    calls the platform's [run] exactly once, drives two (or more) procs
    through one of the platform's client surfaces — a lock algorithm or
    the lock-free queue over [Prims], a platform lock, the sync/select/CML
    packages over a minimal proc-per-thread scheduler — and raises if an
    invariant that must hold on {e every} schedule is violated.  Shared by
    [test/test_check.ml] (exhaustive DFS per scenario) and
    [mp_repro check] (the CI gate). *)

module Make (C : Mp_check.S with type Proc.proc_datum = int) : sig
  val all : (string * (unit -> unit)) list
  (** Small-state scenarios meant for exhaustive bound-2 DFS: the 8 mutex
      algorithms + the reader/writer spin lock, the shared queues (the
      spmc queue twice: a steal racing the owner's pops, and both owner
      ends against a thief), the server accept/shard/work pipeline over
      bounded shard queues,
      Sync ivar/mvar/semaphore, Select, CML rendezvous and choice, and the
      proc-pool contract. *)

  val heavy : (string * (unit -> unit)) list
  (** Scenarios with large decision counts (the full [Sched_thread] package
      over the checker) — explore with a low bound or a schedule cap. *)

  val broken : (string * (unit -> unit)) list
  (** Deliberately buggy clients (a racy test-and-set lock; a server
      router that drops a request on shard collision).  Exploration MUST
      find a failure here — the harness's own self-test. *)
end
