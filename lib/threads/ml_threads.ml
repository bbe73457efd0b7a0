module Make (P : Mp.Mp_intf.PLATFORM_INT) (S : Thread_intf.SCHED) = struct
  module K = Park.Make (P) (S)
  module L = K.Sync (struct end)

  type thread = int

  let next = Atomic.make 1

  let fork f =
    let handle = Atomic.fetch_and_add next 1 in
    S.fork f;
    handle

  let exit () = S.dispatch ()
  let yield = S.yield
  let self () = S.id ()
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
