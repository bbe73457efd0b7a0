(* Interconnect topology: the procs are grouped into [nodes] equal nodes,
   each with its own local bus of [bus_bytes_per_cycle] bandwidth, joined
   by one inter-node link.  A transfer that must leave its node (a write to
   a line cached on another node) crosses the local bus first and then the
   link, paying [link_latency_cycles] plus the bytes at
   [link_bytes_per_cycle]; the link is FCFS and shared by all nodes, which
   is what makes cross-node contention collapse at large P.  One node is
   the single FCFS bus shared by every proc, and its link is unreachable. *)
type machine = {
  nodes : int;
  link_latency_cycles : int;
  link_bytes_per_cycle : float;
}

let flat_bus = { nodes = 1; link_latency_cycles = 0; link_bytes_per_cycle = 0. }

type mode = Run_ahead | Checked | Reference

type t = {
  name : string;
  procs : int;
  mhz : float;
  cpi : float;
  bus_bytes_per_cycle : float;
  machine : machine;
  alloc_cycles_per_word : float;
  try_lock_cycles : int;
  unlock_cycles : int;
  spin_retry_cycles : int;
  gc_region_words : int;
  gc_cycles_per_word : float;
  gc_fixed_cycles : int;
  gc_minor_fixed_cycles : int;
  gc_barrier_cycles : int;
  gc : Gc_model.t;
  acquire_proc_cycles : int;
  mode : mode;
  sched : string;
}

(* What both presets always set alike (see the interface). *)
let word_bytes = 4
let lock_bus_bytes = 8
let idle_quantum_cycles = 2_000
let gc_survival = 0.03

(* Sequent Symmetry S81: 16 MHz 80386s; 25 MB/s usable bus; MP mutex
   lock+unlock = 46 us = 736 cycles at 16 MHz. *)
let sequent ?(procs = 16) ?(sched = "distributed") () =
  {
    name = "sequent";
    procs;
    mhz = 16.;
    cpi = 4.5;
    bus_bytes_per_cycle = 25.0e6 /. 16.0e6;
    machine = flat_bus;
    alloc_cycles_per_word = 2.0;
    try_lock_cycles = 500;
    unlock_cycles = 236;
    spin_retry_cycles = 200;
    gc_region_words = 512 * 1024;
    gc_cycles_per_word = 30.;
    gc_fixed_cycles = 100_000;
    gc_minor_fixed_cycles = 5_000;
    gc_barrier_cycles = 10_000;
    gc = Gc_model.default;
    acquire_proc_cycles = 10_000;
    mode = Run_ahead;
    sched;
  }

(* SGI 4D/380S: 33 MHz R3000s (roughly 8x the per-processor throughput of
   the 386 at ~1.2 CPI); bus only ~30 MB/s; lock+unlock = 6 us = 198 cycles. *)
let sgi ?(procs = 8) ?(sched = "distributed") () =
  {
    name = "sgi";
    procs;
    mhz = 33.;
    cpi = 1.2;
    bus_bytes_per_cycle = 30.0e6 /. 33.0e6;
    machine = flat_bus;
    alloc_cycles_per_word = 1.0;
    try_lock_cycles = 130;
    unlock_cycles = 68;
    spin_retry_cycles = 60;
    gc_region_words = 512 * 1024;
    gc_cycles_per_word = 10.;
    gc_fixed_cycles = 60_000;
    gc_minor_fixed_cycles = 3_000;
    gc_barrier_cycles = 6_000;
    gc = Gc_model.default;
    acquire_proc_cycles = 6_000;
    mode = Run_ahead;
    sched;
  }

(* NUMA preset built from the Sequent's per-proc constants: each node is a
   Sequent-class bus; the inter-node link has twice one node's bandwidth
   but is shared by every node and adds a fixed crossing latency.  With
   more than two nodes' worth of cross-node traffic the link saturates —
   the knee the large-P sweeps are after. *)
let numa ?(nodes = 4) ?(procs_per_node = 16) ?(sched = "distributed") () =
  if nodes < 1 || procs_per_node < 1 then invalid_arg "Sim_config.numa";
  (* sharer sets are int bitmasks in the simulator *)
  if nodes > 62 then invalid_arg "Sim_config.numa: at most 62 nodes";
  let base = sequent ~procs:(nodes * procs_per_node) ~sched () in
  {
    base with
    name = Printf.sprintf "numa:%dx%d" nodes procs_per_node;
    machine =
      {
        nodes;
        link_latency_cycles = 120;
        link_bytes_per_cycle = 2.0 *. base.bus_bytes_per_cycle;
      };
  }

let machine_names = [ "sequent"; "sgi"; "numa:<nodes>x<procs>"; "numa1024" ]

(* Machine selector syntax for [--machine] and sweep drivers.  ["numa1024"]
   is the canonical 1024-proc preset (16 nodes of 64). *)
let of_machine_string ?sched ?gc str =
  let apply = function
    | Ok c -> Ok (match gc with Some g -> { c with gc = g } | None -> c)
    | Error _ as e -> e
  in
  apply
  @@
  let s = String.lowercase_ascii (String.trim str) in
  match s with
  | "sequent" | "flat" -> Ok (sequent ?sched ())
  | "sgi" -> Ok (sgi ?sched ())
  | "numa" -> Ok (numa ?sched ())
  | "numa1024" -> Ok (numa ~nodes:16 ~procs_per_node:64 ?sched ())
  | _ -> (
      let bad () =
        Error
          (Printf.sprintf "unknown machine %S (expected %s)" s
             (String.concat "|" machine_names))
      in
      match String.index_opt s ':' with
      | Some i when String.sub s 0 i = "numa" -> (
          let arg = String.sub s (i + 1) (String.length s - i - 1) in
          match String.index_opt arg 'x' with
          | Some j -> (
              let n = String.sub arg 0 j in
              let m = String.sub arg (j + 1) (String.length arg - j - 1) in
              match (int_of_string_opt n, int_of_string_opt m) with
              | Some nodes, Some per when nodes >= 1 && nodes <= 62 && per >= 1
                ->
                  Ok (numa ~nodes ~procs_per_node:per ?sched ())
              | _ -> bad ())
          | None -> bad ())
      | _ -> bad ())

let of_machine_string_exn ?sched ?gc s =
  match of_machine_string ?sched ?gc s with
  | Ok c -> c
  | Error msg -> invalid_arg msg

let nodes c = c.machine.nodes

(* Procs are grouped into nodes by contiguous index blocks, so a pool that
   acquires procs 0..k-1 stays on as few nodes as possible. *)
let procs_per_node c =
  let n = nodes c in
  (c.procs + n - 1) / n

let cycles_to_seconds c n = float_of_int n /. (c.mhz *. 1.0e6)
let seconds_to_cycles c s = int_of_float (s *. c.mhz *. 1.0e6)
