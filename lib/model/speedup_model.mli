(** Closed-form speedup model used to cross-check the simulator.

    The §6 story of the paper is that each benchmark's speedup is governed
    by four resources; this model composes them analytically:

    {ul
    {- perfectly parallel work [work] (seconds on one proc), bounded by the
       available parallelism [max_par] (e.g. simple's banded sweeps);}
    {- a serial component [serial] (boundary passes, fork/join and
       reduction overheads) that Amdahl-limits the curve;}
    {- stop-the-world sequential collection [gc], paid at any proc count;}
    {- a shared bus: the run cannot finish faster than its total traffic
       [bus_bytes] divided by the bus bandwidth.}}

    T(p) = max( work/min(p,max_par) + serial + gc,  bus_seconds ),
    speedup(p) = T(1)/T(p).

    Fitting these four numbers from a single-proc simulator run and
    comparing predictions against full simulations validates that the
    simulator's behaviour comes from the modelled resources and nothing
    else. *)

type params = {
  work : float;  (** parallelizable seconds at p=1 *)
  serial : float;  (** per-run serial seconds (excluding GC) *)
  gc : float;  (** total collection seconds *)
  bus_seconds : float;  (** total traffic / bandwidth *)
  max_par : float;  (** parallelism cap (infinity if none) *)
}

type topology = {
  nodes : int;  (** interconnect nodes (1 = flat bus) *)
  procs_per_node : int;  (** procs filled per node, contiguous blocks *)
  link_seconds : float;
      (** cross-node traffic / link bandwidth once >1 node is active *)
}
(** Hierarchical-machine refinement of the bus bound, mirroring
    {!Sim.Sim_config.machine}'s node/link shape.  Procs fill nodes in
    contiguous blocks, so [p] procs occupy [ceil(p / procs_per_node)]
    nodes: the traffic bound becomes [bus_seconds] divided by the active
    node count (each node has a private bus), and as soon as a second
    node is active the shared inter-node link adds its own floor of
    [link_seconds].  This predicts the NUMA knee: the curve tracks the
    flat model while the pool fits one node, then flattens at
    [link_seconds] when cross-node traffic saturates the link. *)

val flat : topology
(** One node, no link: both bounds reduce to the flat-bus model. *)

val nodes_active : topology -> procs:int -> int
(** Nodes occupied by a contiguous pool of [procs] procs (at least 1). *)

val time : ?topology:topology -> params -> procs:int -> float
val speedup : ?topology:topology -> params -> procs:int -> float

val fit :
  elapsed1:float -> gc1:float -> bus_busy1:float -> ?serial:float ->
  ?max_par:float -> unit -> params
(** Derive parameters from a 1-proc simulated run: [work] is what remains
    of [elapsed1] after GC and the declared serial part; the bus bound is
    the observed total bus occupancy. *)
