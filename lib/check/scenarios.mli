(** The scenario corpus wired over a checkable platform instance.

    Each scenario is a self-contained body for {!Mp_check.S.Explore}: it
    calls the platform's [run] exactly once, drives two (or more) procs
    through one of the platform's client surfaces — a lock algorithm or
    the lock-free queue over [Prims], a platform lock, the sync/select/CML
    packages over a minimal proc-per-thread scheduler — and raises if an
    invariant that must hold on {e every} schedule is violated.  Shared by
    [test/test_check.ml] (exhaustive DFS per scenario) and
    [mp_repro check] (the CI gate).

    Bodies are written over a dscheck-shaped harness ({!par}, then the
    final check) whose helpers perform exactly the visible operations a
    scenario asks for, so each scenario explores only its own
    interleavings. *)

module Make (C : Mp_check.S with type Proc.proc_datum = int) : sig
  val join : unit -> unit
  (** Wait until every proc but the root has been released. *)

  val par : (unit -> unit) -> (unit -> 'a) -> 'a
  (** [par spawned root] runs [spawned] on a second proc and [root] on the
      calling one, then {!join}s, and returns [root]'s result.  Its only
      visible operations are the spawn and the join.  Call it inside
      [run]; it raises [No_More_Procs] if the spawn finds no free proc. *)

  val all : (string * (unit -> unit)) list
  (** Small-state scenarios meant for exhaustive bound-2 DFS: the 8 mutex
      algorithms + the reader/writer spin lock, the shared queues (the
      spmc queue three times: a steal racing the owner's pops, both owner
      ends against a thief, and the owner's take-backs against a thief),
      the server accept/shard/work pipeline over bounded shard queues,
      Sync ivar/mvar/semaphore, Select, CML rendezvous and choice, and the
      proc-pool contract. *)

  val heavy : (string * (unit -> unit)) list
  (** The full [Sched_thread] package over the checker, one pool scenario
      per scheduler policy ([threads_pool_<policy>]), and
      [threads_pool_ws_wait], where a [ws] child can be stolen before its
      parent takes it back.  Decision counts are large: explore with a low
      bound or a schedule cap. *)

  val ws_wait : on_steals:(int -> unit) -> unit -> unit
  (** [threads_pool_ws_wait], handing each completed run's steal count to
      [on_steals]. *)

  val broken : (string * (unit -> unit)) list
  (** Deliberately buggy clients (a racy test-and-set lock; a server
      router that drops a request on shard collision).  Exploration MUST
      find a failure here — the harness's own self-test. *)
end
