(* The per-layer ledger: the cost of one operation of each layer, timed
   from outside through the layer's public functions.  [*_ns] rows run on
   the domains backend with one proc and report the median of 21 batches of
   1000 operations; [*_cycles] rows run the same operations on the
   simulated Sequent and report exact virtual cycles per operation. *)

let batches = ref 21
let ops = ref 1000

let repeat f =
  for _ = 1 to !ops do
    f ()
  done

(* Median over the batches of [cost batch] / ops. *)
let per_op cost batch =
  Stat.median (List.init !batches (fun _ -> cost batch /. float_of_int !ops))

(* Each operation, given how to measure a batch of it. *)
module Ops (P : Mp.Mp_intf.PLATFORM_INT) = struct
  module Sched = Mpthreads.Sched_thread.Make (P)
  module Sy = Mpsync.Sync.Make (P) (Sched)
  module Chan = Cml.Make (P) (Sched)

  let in_pool f = P.run (fun () -> Sched.with_pool ~procs:1 f)

  (* a partner thread keeps the other side of a two-thread operation going
     until [stop] is set *)
  let with_partner partner f =
    in_pool (fun () ->
        let stop = ref false in
        Sched.fork (fun () -> partner stop);
        let r = f () in
        stop := true;
        r)

  let callcc measure =
    P.run (fun () ->
        measure (fun () -> repeat (fun () -> ignore (P.Kont.callcc (fun k -> P.Kont.throw k 1)))))

  let suspend measure =
    P.run (fun () ->
        measure (fun () ->
            repeat (fun () -> Mp.Engine.suspend (fun c -> Mp.Engine.Resume (c, ())))))

  let fork_join measure =
    in_pool (fun () -> measure (fun () -> repeat (fun () -> Sched.fork_join [ ignore ])))

  (* one round trip: this thread yields to the partner, which yields back *)
  let yield measure =
    with_partner
      (fun stop ->
        while not !stop do
          Sched.yield ()
        done)
      (fun () -> measure (fun () -> repeat Sched.yield))

  let lock measure =
    let l = P.Lock.mutex_lock () in
    P.run (fun () ->
        measure (fun () ->
            repeat (fun () ->
                P.Lock.lock l;
                P.Lock.unlock l)))

  let semaphore measure =
    in_pool (fun () ->
        let s = Sy.Semaphore.create 0 in
        measure (fun () ->
            repeat (fun () ->
                Sy.Semaphore.release s;
                Sy.Semaphore.acquire s)))

  (* one synchronous rendezvous: the partner sends, this thread receives *)
  let send_recv measure =
    let ch = Chan.channel () in
    with_partner
      (fun stop ->
        while not !stop do
          Chan.send ch ()
        done)
      (fun () ->
        let r = measure (fun () -> repeat (fun () -> Chan.recv ch)) in
        (* release the partner from its last send *)
        ignore (Chan.recv_poll ch);
        r)
end

module Host = Ops (Mp.Mp_domains.Int (struct
  let max_procs = 1
end) ())

module Sequent =
  Sim.Mp_sim.Int
    (struct
      let config = Sim.Sim_config.sequent ~procs:16 ()
    end)
    ()

module Sim_ops = Ops (Sequent)

let host_ns =
  per_op (fun batch ->
      let t0 = Unix.gettimeofday () in
      batch ();
      (Unix.gettimeofday () -. t0) *. 1e9)

let cycles =
  let clock () =
    Sim.Sim_config.seconds_to_cycles Sequent.Machine.config (Sequent.Work.now ())
  in
  per_op (fun batch ->
      let c0 = clock () in
      batch ();
      float_of_int (clock () - c0))

let queues () =
  let spmc =
    let q = Queues.Spmc_queue.create () in
    host_ns (fun () ->
        repeat (fun () ->
            Queues.Spmc_queue.push q 1;
            ignore (Queues.Spmc_queue.pop q)))
  in
  let bounded =
    let q = Queues.Bounded_queue.create ~capacity:64 in
    host_ns (fun () ->
        repeat (fun () ->
            ignore (Queues.Bounded_queue.try_enq q 1);
            ignore (Queues.Bounded_queue.deq_opt q)))
  in
  [ ("queues.spmc_push_pop_ns", spmc); ("queues.bounded_enq_deq_ns", bounded) ]

(* Each layer's probes under a [probe.<layer>] span; [smoke] shrinks the
   batches to a token size. *)
let run ~smoke =
  if smoke then begin
    batches := 3;
    ops := 100
  end;
  List.concat_map
    (fun (layer, f) -> Spans.with_span ~group:layer ("probe." ^ layer) f)
    [
      ( "engine",
        fun () ->
          [
            ("engine.callcc_throw_ns", Host.callcc host_ns);
            ("engine.suspend_resume_ns", Host.suspend host_ns);
          ] );
      ( "threads",
        fun () ->
          [
            ("threads.fork_join_ns", Host.fork_join host_ns);
            ("threads.yield_ns", Host.yield host_ns);
            ("threads.fork_join_cycles", Sim_ops.fork_join cycles);
          ] );
      ("queues", queues);
      ( "locks",
        fun () ->
          [
            ("lock.lock_unlock_ns", Host.lock host_ns);
            ("lock.lock_unlock_cycles", Sim_ops.lock cycles);
          ] );
      ("sync", fun () -> [ ("sync.semaphore_ns", Host.semaphore host_ns) ]);
      ( "cml",
        fun () ->
          [
            ("cml.send_recv_ns", Host.send_recv host_ns);
            ("cml.send_recv_cycles", Sim_ops.send_recv cycles);
          ] );
    ]
