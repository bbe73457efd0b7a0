(* Open-loop request-serving workload: the ROADMAP "heavy traffic from
   millions of users" scenario in virtual time.

   A seeded arrival process (Poisson or bursty/MMPP) drives a CML-channel
   pipeline — accept → shard (hash over N bounded worker queues) → work
   (exponential service demand) → reply — built entirely on the
   Cml/Sync/Sched_thread client layers, so one implementation runs on all
   four backends (uniproc/domains/sim/check).

   Open-loop means latency is measured from each request's *intended*
   arrival instant, which is a pure function of (seed, id): when the system
   saturates, the accepter falls behind the arrival clock and queueing delay
   lands in the tail instead of silently throttling the offered load, which
   is what makes the p99-vs-offered-load knee visible.  Every per-request
   quantity (arrival instant, shard, service demand) is a pure function of
   the request id, never of scheduling order, so on the simulator a
   (config, sched, procs, machine) cell is bit-reproducible. *)

type arrival =
  | Poisson  (** exponential inter-arrivals at [rate] *)
  | Bursty of { factor : float; p_switch : float }
      (** two-state MMPP: rate alternates between [rate * factor] and
          [rate / factor], toggling with probability [p_switch] per
          arrival; same mean offered load as [Poisson] at equal [rate] *)

type config = {
  requests : int;
  arrival : arrival;
  rate : float;  (** mean offered load, requests per (virtual) second *)
  shards : int;  (** worker pools; requests hash over them *)
  workers_per_shard : int;
  queue_cap : int;  (** bound of each shard queue (the backpressure) *)
  seed : int;
  record_order : bool;
      (** keep each shard's processing order (tests only: O(requests)) *)
}

let default =
  {
    requests = 2000;
    arrival = Poisson;
    rate = 250.;
    shards = 4;
    workers_per_shard = 1;
    queue_cap = 64;
    seed = 1993;
    record_order = false;
  }

(* ------------------------------------------------------------------ *)
(* Deterministic per-request randomness: a 62-bit xorshift-multiply    *)
(* mix keyed by (seed, stream, id).  Pure and platform-independent —   *)
(* the same config yields the same trace on every backend.             *)
(* ------------------------------------------------------------------ *)

let mix x =
  let x = x land max_int in
  let x = (x lxor (x lsr 30)) * 0x4F1BBCDD in
  let x = x land max_int in
  let x = (x lxor (x lsr 27)) * 0x2545F491 in
  let x = x land max_int in
  x lxor (x lsr 31)

(* uniform in (0, 1] *)
let uniform ~seed ~stream i =
  let h = mix ((seed * 0x3779B9) + (stream * 1_000_003) + (i * 7919)) in
  let b = (h lsr 13) land 0x3FFFFFFF in
  float_of_int (b + 1) /. 1073741825.0

let shard_of cfg i = mix ((cfg.seed * 31) + 3 + (i * 104729)) mod cfg.shards

let service_mean_instrs = 20_000

let service_instrs cfg i =
  let u = uniform ~seed:cfg.seed ~stream:2 i in
  let n = int_of_float (-.log u *. float_of_int service_mean_instrs) in
  if n < 16 then 16 else if n > 5_000_000 then 5_000_000 else n

(* Intended arrival instants, seconds from run start, ascending.  With a
   non-finite or non-positive [rate] every request arrives at t = 0 (a
   closed burst — what the conformance trace uses so the pipeline needs no
   timers on the check backend). *)
let arrivals cfg =
  let n = cfg.requests in
  let ts = Array.make n 0. in
  if Float.is_finite cfg.rate && cfg.rate > 0. then begin
    let t = ref 0. in
    let hi = ref true in
    for i = 0 to n - 1 do
      let rate =
        match cfg.arrival with
        | Poisson -> cfg.rate
        | Bursty { factor; p_switch } ->
            if uniform ~seed:cfg.seed ~stream:1 i < p_switch then
              hi := not !hi;
            if !hi then cfg.rate *. factor else cfg.rate /. factor
      in
      t := !t +. (-.log (uniform ~seed:cfg.seed ~stream:0 i) /. rate);
      ts.(i) <- !t
    done
  end;
  ts

type result = {
  completed : int;
  elapsed : float;  (** run start to last reply, (virtual) seconds *)
  throughput : float;  (** completed / elapsed *)
  hist : Obs.Histogram.t;  (** per-request latency, nanoseconds *)
  p50 : int;
  p95 : int;
  p99 : int;
  p999 : int;  (** latency quantiles in nanoseconds (bucket upper bounds) *)
  queue_wait : float;
      (** seconds producers spent blocked on full shard queues, summed
          over procs ([Stats.total_queue_wait]) — the backpressure share
          of the tail *)
  order : int list array;  (** per-shard processing order if recorded *)
}

module Make (P : Mp.Mp_intf.PLATFORM_INT) = struct
  module Sched = Mpthreads.Sched_thread.Make (P)
  module Chan = Cml.Make (P) (Sched)
  module Sy = Mpsync.Sync.Make (P) (Sched)

  (* Bounded MPMC shard queue with blocking put/get, synthesized exactly as
     the paper prescribes (§3.3) from a mutex lock plus semaphores (which
     themselves park continuations).  Producers blocked on a full queue
     report the stall through [Work.note_queue_wait], so saturation shows
     up per proc in [Stats.queue_wait] rather than vanishing into idle
     time. *)
  type 'a shard_queue = {
    lock : P.Lock.mutex_lock;
    buf : 'a Queues.Bounded_queue.t;
    space : Sy.Semaphore.t;
    items : Sy.Semaphore.t;
  }

  let shard_queue capacity =
    {
      lock = P.Lock.mutex_lock ();
      buf = Queues.Bounded_queue.create ~capacity;
      space = Sy.Semaphore.create capacity;
      items = Sy.Semaphore.create 0;
    }

  let sq_put q v =
    if not (Sy.Semaphore.try_acquire q.space) then begin
      let t0 = Sched.now () in
      Sy.Semaphore.acquire q.space;
      P.Work.note_queue_wait ~seconds:(Sched.now () -. t0)
    end;
    P.Lock.locked q.lock (fun () ->
        ignore (Queues.Bounded_queue.try_enq q.buf v));
    Sy.Semaphore.release q.items

  let sq_get q =
    Sy.Semaphore.acquire q.items;
    let v =
      P.Lock.locked q.lock (fun () ->
          match Queues.Bounded_queue.deq_opt q.buf with
          | Some v -> v
          | None -> assert false)
    in
    Sy.Semaphore.release q.space;
    v

  type request = { id : int; arrival : float }

  let poison = { id = -1; arrival = 0. }

  (* One latency histogram per instance, reset at each run's start and
     returned in the result; [Histogram.add] is commutative, so concurrent
     recording on the domains backend still yields a deterministic digest
     of a given latency multiset. *)
  let hist = Obs.Histogram.create ()

  let run ~procs ?quantum ?sched cfg =
    if cfg.requests <= 0 then invalid_arg "Server.run: requests <= 0";
    if cfg.shards <= 0 || cfg.workers_per_shard <= 0 || cfg.queue_cap <= 0
    then invalid_arg "Server.run: shards/workers/queue_cap must be positive";
    Obs.Histogram.reset hist;
    P.reset_stats ();
    let n = cfg.requests in
    let ts = arrivals cfg in
    let order =
      Array.make (if cfg.record_order then cfg.shards else 0) []
    in
    let completed = ref 0 and t_start = ref 0. and t_last = ref 0. in
    P.run (fun () ->
        Sched.with_pool ~procs ?quantum ?sched (fun () ->
            Chan.set_seed cfg.seed;
            let queues = Array.init cfg.shards (fun _ -> shard_queue cfg.queue_cap) in
            let accept_ch : request Chan.chan = Chan.channel () in
            let reply_ch : request Chan.chan = Chan.channel () in
            let t0 = Sched.now () in
            t_start := t0;
            (* accept: pace the offered load in (virtual) time, then hand
               off synchronously.  The arrival stamp is the intended
               instant t0 + ts.(i) — if the pipeline backs up, the send
               blocks, the accepter falls behind the arrival clock, and
               the delay is charged to the requests' latency. *)
            Chan.spawn (fun () ->
                for i = 0 to n - 1 do
                  let due = t0 +. ts.(i) in
                  let d = due -. Sched.now () in
                  if d > 0. then Sched.sleep d;
                  Chan.send accept_ch { id = i; arrival = due }
                done);
            (* shard: hash each request over the bounded worker queues;
               blocks on a full shard, which backpressures accept. *)
            Chan.spawn (fun () ->
                for _ = 1 to n do
                  let r = Chan.recv accept_ch in
                  sq_put queues.(shard_of cfg r.id) r
                done;
                Array.iter
                  (fun q ->
                    for _ = 1 to cfg.workers_per_shard do
                      sq_put q poison
                    done)
                  queues);
            (* work: per-shard worker pools; service demand is a pure
               function of the request id, so makespans don't depend on
               which worker wins a race for the queue. *)
            Array.iteri
              (fun s q ->
                for _ = 1 to cfg.workers_per_shard do
                  Chan.spawn (fun () ->
                      let rec serve () =
                        let r = sq_get q in
                        if r.id >= 0 then begin
                          if cfg.record_order then
                            P.Lock.locked q.lock (fun () ->
                                order.(s) <- r.id :: order.(s));
                          P.Work.step ~instrs:(service_instrs cfg r.id) ();
                          Chan.send reply_ch r;
                          serve ()
                        end
                      in
                      serve ())
                done)
              queues;
            (* reply: thread 0 collects and stamps completion. *)
            for _ = 1 to n do
              let r = Chan.recv reply_ch in
              let t_done = Sched.now () in
              Obs.Histogram.add hist
                (int_of_float ((t_done -. r.arrival) *. 1e9));
              incr completed;
              t_last := t_done
            done));
    let st = P.stats () in
    let elapsed = !t_last -. !t_start in
    {
      completed = !completed;
      elapsed;
      throughput = (if elapsed > 0. then float_of_int !completed /. elapsed else 0.);
      hist;
      p50 = Obs.Histogram.quantile hist 0.5;
      p95 = Obs.Histogram.quantile hist 0.95;
      p99 = Obs.Histogram.quantile hist 0.99;
      p999 = Obs.Histogram.quantile hist 0.999;
      queue_wait = Mp.Stats.total_queue_wait st;
      order = Array.map List.rev order;
    }
end
