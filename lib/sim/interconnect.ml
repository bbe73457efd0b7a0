(* The simulated machine's memory interconnect: one FCFS bus per node and,
   on a hierarchical machine, one FCFS link shared by every node, plus the
   cache-line sharer sets that route a write either onto the local bus or
   across the link.  On a one-node machine every sharer set is a subset of
   [{0}] and the link is unreachable. *)

type t = {
  n_nodes : int;
  per_node : int;
  bus_bytes_per_cycle : float;
  link_latency : int;
  link_bytes_per_cycle : float;
  bus_free_at : int array;
  bus_busy : int array;
  mutable link_free_at : int;
  mutable link_busy : int;
  mutable bytes : int;
  mutable remote_bytes : int;
  mutable invalidations : int;
}

let create (c : Sim_config.t) =
  let n_nodes = Sim_config.nodes c in
  {
    n_nodes;
    per_node = Sim_config.procs_per_node c;
    bus_bytes_per_cycle = c.bus_bytes_per_cycle;
    link_latency = c.machine.link_latency_cycles;
    link_bytes_per_cycle = c.machine.link_bytes_per_cycle;
    bus_free_at = Array.make n_nodes 0;
    bus_busy = Array.make n_nodes 0;
    link_free_at = 0;
    link_busy = 0;
    bytes = 0;
    remote_bytes = 0;
    invalidations = 0;
  }

let reset t =
  Array.fill t.bus_free_at 0 t.n_nodes 0;
  Array.fill t.bus_busy 0 t.n_nodes 0;
  t.link_free_at <- 0;
  t.link_busy <- 0;
  t.bytes <- 0;
  t.remote_bytes <- 0;
  t.invalidations <- 0

let nodes t = t.n_nodes
let node_of t proc = if t.n_nodes = 1 then 0 else proc / t.per_node

let popcount x =
  let rec go acc x = if x = 0 then acc else go (acc + 1) (x land (x - 1)) in
  go 0 x

(* A shared word's cache line: [sharers] is the set of nodes holding a
   copy, as a bitmask. *)
type line = { mutable sharers : int }

let line () = { sharers = 0 }
let sharers ln = ln.sharers
let share t ln ~proc = ln.sharers <- ln.sharers lor (1 lsl node_of t proc)

(* An RMW claims the line exclusive for [proc]'s node.  The result is the
   write's route: the other nodes whose copies it invalidates, 0 when the
   write stays on the local bus. *)
let claim t ln ~proc =
  let me = 1 lsl node_of t proc in
  let others = ln.sharers land lnot me in
  ln.sharers <- me;
  others

(* One transaction by [proc]: [cpu] cycles of work from [clock], then a
   [bytes]-byte transfer (none when 0) that queues FCFS on the node's bus
   and, when [route] is non-zero, then on the link, paying its latency.
   Reserves the bus (and link) and returns the post-transaction clock.
   Allocation-free. *)
let transact t ~proc ~clock ~cpu ~bytes ~route =
  let clock = clock + cpu in
  if bytes = 0 then clock
  else begin
    let node = node_of t proc in
    let ldur =
      max 1 (int_of_float (float_of_int bytes /. t.bus_bytes_per_cycle))
    in
    let lend = max clock t.bus_free_at.(node) + ldur in
    t.bus_free_at.(node) <- lend;
    t.bus_busy.(node) <- t.bus_busy.(node) + ldur;
    t.bytes <- t.bytes + bytes;
    if route = 0 then lend
    else begin
      let kdur =
        t.link_latency
        + max 1 (int_of_float (float_of_int bytes /. t.link_bytes_per_cycle))
      in
      let kend = max lend t.link_free_at + kdur in
      t.link_free_at <- kend;
      t.link_busy <- t.link_busy + kdur;
      t.remote_bytes <- t.remote_bytes + bytes;
      t.invalidations <- t.invalidations + popcount route;
      kend
    end
  end

let bytes t = t.bytes
let remote_bytes t = t.remote_bytes
let invalidations t = t.invalidations
let bus_busy_cycles t = Array.fold_left ( + ) 0 t.bus_busy
let link_busy_cycles t = t.link_busy
