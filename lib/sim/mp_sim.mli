(** MP backend over a deterministic simulated shared-memory multiprocessor.

    This is the substitute for the paper's evaluation hardware (a
    16-processor Sequent Symmetry S81 and an SGI 4D/380S), which this
    reproduction cannot access.  Procs are virtual processors with per-proc
    cycle clocks, multiplexed as fibers over one OCaml domain and scheduled
    lowest-clock-first (deterministic).  The model charges exactly the
    resources §6 of the paper identifies as the performance limiters:

    {ul
    {- a shared FCFS memory bus of finite bandwidth, loaded by heap
       allocation (SML/NJ's ≈1 word per 3–7 instructions) and lock RMWs;}
    {- stop-the-world, {e sequential} two-generation copying collection:
       procs synchronize at clean points (their charge boundaries), one proc
       collects while the others wait (§5);}
    {- spinning mutex locks whose probes cost CPU cycles and bus traffic;}
    {- idle time, accounted whenever a proc polls for work.}}

    Client code runs for real (results are computed exactly); only {e time}
    is virtual, advanced by [Work.step]/[Work.charge]/[Work.idle_until] and by
    the platform's own lock/proc operations.  Simulated [Lock] and [Work]
    operations must be called from client (fiber) code, never from an
    [Engine.suspend] body. *)

module Make (C : sig
  val config : Sim_config.t
end)
(D : Mp.Mp_intf.DATUM) : sig
  include Mp.Mp_intf.PLATFORM with type Proc.proc_datum = D.t

  (** Simulator-specific introspection: the machine and the exact counts
      of the last [run] that {!Mp.Stats.t} has no field for. *)
  module Machine : sig
    val config : Sim_config.t

    val makespan_cycles : unit -> int
    (** Largest virtual clock reached in the last [run]. *)

    val coalesced_charges : unit -> int
    (** Host-side: charging operations absorbed inline by the run-ahead
        fast path (each would have been one suspension + one dispatch). *)

    val gc_cycles : unit -> int
    (** Total pause cycles: stop-the-world durations plus per-proc minor
        pauses (equal to the old total under the default [stw] model). *)

    val gc_minor_collections : unit -> int
    (** Proc-local minor collections (0 under [stw]/[par_stw]). *)

    val gc_major_collections : unit -> int
    (** Stop-the-world collections. *)

    val remote_bytes : unit -> int
    (** Traffic that crossed the inter-node link (0 on one node). *)

    val invalidations : unit -> int
    (** Remote cached copies invalidated by lock/queue-word RMWs. *)

    val bus_busy_cycles : unit -> int
    (** Busy cycles summed over the node buses. *)
  end
end

module Int (C : sig
  val config : Sim_config.t
end)
() : module type of Make (C) (Mp.Mp_intf.Int_datum)
