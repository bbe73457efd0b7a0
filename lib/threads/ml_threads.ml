module Make (P : Mp.Mp_intf.PLATFORM_INT) (S : Thread_intf.SCHED) = struct
  module K = Park.Make (P) (S)
  module L = K.Sync (struct end)

  type thread = int

  let next = Atomic.make 1

  (* A forked thread adopts its handle under its scheduler id when it
     starts (as [M3_thread] adopts its alert state), so [self ()] inside it
     returns what [fork] returned; it gives the id up when it returns or
     exits.  A thread this package did not fork (a pool's root) is named
     by its scheduler id. *)
  let handles_lock = P.Lock.mutex_lock ()
  let handles : (int, thread) Hashtbl.t = Hashtbl.create 64
  let with_handles f = P.Lock.locked handles_lock (fun () -> f handles)
  let retire () = with_handles (fun h -> Hashtbl.remove h (S.id ()))

  let fork f =
    let handle = Atomic.fetch_and_add next 1 in
    S.fork (fun () ->
        with_handles (fun h -> Hashtbl.replace h (S.id ()) handle);
        f ();
        retire ());
    handle

  let exit () =
    retire ();
    S.dispatch ()

  let yield = S.yield

  let self () =
    let tid = S.id () in
    with_handles (fun h -> Option.value (Hashtbl.find_opt h tid) ~default:tid)
  let equal (a : thread) b = a = b
  let id (t : thread) = t

  type mutex = L.Mutex.t

  let mutex = L.Mutex.create
  let acquire = L.Mutex.lock
  let try_acquire = L.Mutex.try_lock
  let release = L.Mutex.unlock
  let with_mutex = L.Mutex.with_lock

  type condition = L.Condition.t

  let condition = L.Condition.create
  let wait (c, m) = L.Condition.wait m c
  let signal = L.Condition.signal
  let broadcast = L.Condition.broadcast
end
