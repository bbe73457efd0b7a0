type proc_stats = {
  mutable busy : float;
  mutable idle : float;
  mutable gc_wait : float;
  mutable queue_wait : float;
  mutable lock_spins : int;
  mutable alloc_words : int;
}

type t = {
  platform : string;
  procs : int;
  elapsed : float;
  gc_time : float;
  gc_count : int;
  bus_busy : float;
  bus_bytes : int;
  sched_decisions : int;
  suspensions : int;
  heap_ops : int;
  per_proc : proc_stats array;
}

let make_proc_stats () =
  {
    busy = 0.;
    idle = 0.;
    gc_wait = 0.;
    queue_wait = 0.;
    lock_spins = 0;
    alloc_words = 0;
  }

let host_collections () =
  let g = Gc.quick_stat () in
  g.Gc.minor_collections + g.Gc.major_collections

let zero ~platform ~procs =
  {
    platform;
    procs;
    elapsed = 0.;
    gc_time = 0.;
    gc_count = 0;
    bus_busy = 0.;
    bus_bytes = 0;
    sched_decisions = 0;
    suspensions = 0;
    heap_ops = 0;
    per_proc = Array.init procs (fun _ -> make_proc_stats ());
  }

let idle_fraction t =
  let num = ref 0. and den = ref 0. in
  Array.iter
    (fun p ->
      num := !num +. p.idle;
      den := !den +. p.busy +. p.idle +. p.gc_wait)
    t.per_proc;
  if !den = 0. then 0. else !num /. !den

let bus_utilization t = if t.elapsed = 0. then 0. else t.bus_busy /. t.elapsed

let bus_mb_per_sec t =
  if t.elapsed <= 0. then 0. else float_of_int t.bus_bytes /. 1.0e6 /. t.elapsed

let total_alloc_words t =
  Array.fold_left (fun acc p -> acc + p.alloc_words) 0 t.per_proc

let total_lock_spins t =
  Array.fold_left (fun acc p -> acc + p.lock_spins) 0 t.per_proc

let total_queue_wait t =
  Array.fold_left (fun acc p -> acc +. p.queue_wait) 0. t.per_proc

let pp fmt t =
  Format.fprintf fmt
    "@[<v>platform=%s procs=%d elapsed=%.6fs gc=%.6fs (%d) bus=%.1f%% \
     idle=%.1f%% spins=%d alloc=%dw host:decisions=%d susp=%d heap=%d@]"
    t.platform t.procs t.elapsed t.gc_time t.gc_count
    (100. *. bus_utilization t)
    (100. *. idle_fraction t)
    (total_lock_spins t) (total_alloc_words t) t.sched_decisions t.suspensions
    t.heap_ops
