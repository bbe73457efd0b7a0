(** The simulated machine's memory interconnect: one FCFS bus per node,
    one FCFS link shared by every node ({!Sim_config.machine}), and the
    cache-line sharer sets that route a write onto the local bus or across
    the link.  All transfer pricing of the simulator happens here, in
    {!transact}. *)

type t

val create : Sim_config.t -> t
val reset : t -> unit

val nodes : t -> int
(** 1 on the Sequent and SGI presets. *)

val node_of : t -> int -> int
(** Node of a proc: contiguous blocks of {!Sim_config.procs_per_node}. *)

(** {1 Sharer sets} *)

type line
(** The cache line of one contended shared word. *)

val line : unit -> line
(** A fresh line, cached nowhere. *)

val sharers : line -> int
(** The nodes holding a copy, as a bitmask (bit [n] = node [n]). *)

val share : t -> line -> proc:int -> unit
(** [proc]'s node now holds a copy (a charge-free read). *)

val claim : t -> line -> proc:int -> int
(** An RMW by [proc] takes the line exclusive for its node and returns the
    write's route: the set of other nodes whose copies it invalidates
    (bitmask), [0] when the write stays node-local. *)

(** {1 Transactions} *)

val transact :
  t -> proc:int -> clock:int -> cpu:int -> bytes:int -> route:int -> int
(** [cpu] cycles of work from [clock], then a [bytes]-byte transfer (none
    when [0]) that queues on [proc]'s node bus and, for a non-zero
    [route], then on the link, paying its latency and invalidating the
    routed copies.  Reserves the bus and link and returns the
    post-transaction clock.  Allocation-free. *)

(** {1 Totals since the last {!reset}} *)

val bytes : t -> int
val remote_bytes : t -> int
val invalidations : t -> int
val bus_busy_cycles : t -> int
val link_busy_cycles : t -> int
