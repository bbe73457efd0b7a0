(* 1993-bus flavored costs: an RMW is a full bus transaction, a spin read
   is a cache hit, a remote write invalidates. *)
let rmw_cycles = 60
let read_cycles = 2
let write_cycles = 20
let pause_cycles = 10

module Make (P : Mp.Mp_intf.PLATFORM) = struct
  (* Each cell carries a platform cache line so the simulator can track
     which nodes have it cached: reads add the reader's node to the sharer
     set, RMWs claim it exclusive and pay for cross-node transfers and
     invalidations.  On real backends [P.Work.line] is stateless and free. *)
  type 'a cell = { v : 'a Atomic.t; ln : P.Work.line }

  (* Spins from the lock-algorithm collection land in the platform's
     registry under their own name so they don't collide with the
     platform Lock's own "lock.spins". *)
  let c_spins = P.Telemetry.counter "lock.prims_spins"

  let make v = { v = Mp.Mp_intf.padded (Atomic.make v); ln = P.Work.line () }

  let get c =
    P.Work.charge read_cycles;
    let r = Atomic.get c.v in
    P.Work.read_line c.ln;
    r

  (* Observation-only read for scheduler idle predicates, which must be
     charge-free: [Work.idle_until ~ready] evaluates its predicate from
     scheduler context where charging would corrupt virtual time.  It does
     not touch the sharer set either (no proc context there).  The [ws]
     steal sweep uses it as a free filter too: a queue it goes on to probe
     is re-read by a charged [get] and claimed by CAS. *)
  let unsafe_peek c = Atomic.get c.v

  let set c v =
    P.Work.charge write_cycles;
    Atomic.set c.v v

  (* An RMW is a bus transaction: it charges the probing proc AND occupies
     the shared bus, which is how spinning TAS probes slow everyone else
     down (Anderson's effect).  Routing goes through the cell's line, so
     on a hierarchical machine a probe against a word cached on another
     node crosses the inter-node link and invalidates the remote copies —
     which is what separates local-spin locks from RMW-spinners at scale. *)
  let rmw_bus_bytes = 8

  let exchange c v =
    P.Work.charge rmw_cycles;
    P.Work.write_line c.ln ~bytes:rmw_bus_bytes;
    Atomic.exchange c.v v

  let compare_and_set c old v =
    P.Work.charge rmw_cycles;
    P.Work.write_line c.ln ~bytes:rmw_bus_bytes;
    Atomic.compare_and_set c.v old v

  let fetch_and_add c n =
    P.Work.charge rmw_cycles;
    P.Work.write_line c.ln ~bytes:rmw_bus_bytes;
    Atomic.fetch_and_add c.v n

  let pause () = P.Work.charge pause_cycles

  let pause_n n =
    if n > 0 then P.Work.charge (n * pause_cycles)

  let on_spin () = Obs.Counters.incr c_spins
end
