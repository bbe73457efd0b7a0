open Mp

module Make
    (P : Mp.Mp_intf.PLATFORM_INT)
    (S : Mpthreads.Thread_intf.SCHED)
    (Q : Queues.Queue_intf.QUEUE_EXT) =
struct
  type 'a sndr = { skont : unit Engine.cont; sid : int; value : 'a }

  type 'a rcvr = {
    rkont : 'a Engine.cont;
    rid : int;
    committed : P.Lock.mutex_lock;
  }

  type 'a chan = {
    ch_lock : P.Lock.mutex_lock;
    sndrs : 'a sndr Q.queue;
    rcvrs : 'a rcvr Q.queue;
  }

  (* Parks and wakes report through the shared park module under
     [select.*]: Blocked when a sender/receiver parks on empty channels,
     Wakeup for the peer resumed by a completed rendezvous. *)
  module K = Mpthreads.Park.Make (P) (S)

  let select = K.layer "select"

  let rng = ref (Random.State.make [| 0x5e1ec7 |])
  let set_seed seed = rng := Random.State.make [| seed |]

  let randomize chans =
    let arr = Array.of_list chans in
    for i = Array.length arr - 1 downto 1 do
      let j = Random.State.int !rng (i + 1) in
      let t = arr.(i) in
      arr.(i) <- arr.(j);
      arr.(j) <- t
    done;
    Array.to_list arr

  let chan () =
    { ch_lock = P.Lock.mutex_lock (); sndrs = Q.create (); rcvrs = Q.create () }

  let send ({ ch_lock; sndrs; rcvrs }, v) =
    P.Lock.lock ch_lock;
    let rec loop () =
      match Q.deq rcvrs with
      | { rkont; rid; committed } ->
          if P.Lock.try_lock committed then begin
            P.Lock.unlock ch_lock;
            K.wake_with select "select.send" (rkont, v, rid)
          end
          else loop () (* stale receiver, already served: drop and retry *)
      | exception Q.Empty ->
          Engine.callcc (fun c ->
              let sid = S.id () in
              Q.enq sndrs { skont = c; sid; value = v };
              P.Lock.unlock ch_lock;
              K.block select "select.send" sid)
    in
    loop ()

  let receive chans =
    Engine.callcc (fun c ->
        let committed = P.Lock.mutex_lock () in
        let r = { rkont = c; rid = S.id (); committed } in
        let rec loop = function
          | [] -> K.block select "select.receive" r.rid
          | { ch_lock; sndrs; rcvrs } :: rest -> (
              P.Lock.lock ch_lock;
              match Q.deq sndrs with
              | { skont; sid; value } ->
                  if P.Lock.try_lock committed then begin
                    P.Lock.unlock ch_lock;
                    K.wake select "select.receive" (skont, sid);
                    value
                  end
                  else begin
                    (* We were already served by some sender; put the sender
                       we just dequeued back (fix to Figure 5 as printed). *)
                    Q.enq sndrs { skont; sid; value };
                    P.Lock.unlock ch_lock;
                    S.dispatch ()
                  end
              | exception Q.Empty ->
                  Q.enq rcvrs r;
                  P.Lock.unlock ch_lock;
                  loop rest)
        in
        loop (randomize chans))

  let pending { ch_lock; sndrs; rcvrs } =
    P.Lock.lock ch_lock;
    let n = (Q.length sndrs, Q.length rcvrs) in
    P.Lock.unlock ch_lock;
    n
end
