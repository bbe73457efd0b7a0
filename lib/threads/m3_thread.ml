module Make (P : Mp.Mp_intf.PLATFORM_INT) (S : Thread_intf.SCHED) = struct
  module K = Park.Make (P) (S)
  module L = K.Sync (struct end)
  module Mutex = L.Mutex
  module Condition = L.Condition

  let sync = L.layer

  type 'a state = Running | Done of 'a | Raised of exn

  exception Alerted

  (* Modula-3 alerts: a per-thread flag plus, while the thread is blocked in
     [alert_wait], the condition it waits on (so [alert] can wake it). *)
  type alert_state = {
    mutable alerted : bool;
    mutable waiting_on : Condition.t option;
  }

  let registry_lock = P.Lock.mutex_lock ()
  let registry : (int, alert_state) Hashtbl.t = Hashtbl.create 64

  let state_of tid =
    P.Lock.lock registry_lock;
    let st =
      match Hashtbl.find_opt registry tid with
      | Some st -> st
      | None ->
          let st = { alerted = false; waiting_on = None } in
          Hashtbl.replace registry tid st;
          st
    in
    P.Lock.unlock registry_lock;
    st

  let my_state () = state_of (S.id ())

  type 'a t = {
    spin : P.Lock.mutex_lock;
    mutable state : 'a state;
    mutable joiners : unit K.waiter list;
    astate : alert_state; (* created at fork, adopted by the thread: alerts
                             posted before the thread starts are not lost *)
  }

  let fork f =
    let t =
      {
        spin = P.Lock.mutex_lock ();
        state = Running;
        joiners = [];
        astate = { alerted = false; waiting_on = None };
      }
    in
    S.fork (fun () ->
        (* adopt the handle's alert state under this thread's id *)
        P.Lock.lock registry_lock;
        Hashtbl.replace registry (S.id ()) t.astate;
        P.Lock.unlock registry_lock;
        let outcome =
          try Done (f ()) with
          | Mp.Engine.Abandoned as e -> raise e
          | e -> Raised e
        in
        P.Lock.lock t.spin;
        t.state <- outcome;
        let joiners = t.joiners in
        t.joiners <- [];
        P.Lock.unlock t.spin;
        (* retire the alert state *)
        P.Lock.lock registry_lock;
        Hashtbl.remove registry (S.id ());
        P.Lock.unlock registry_lock;
        List.iter (K.wake sync "sync.join") joiners);
    t

  let join t =
    K.park sync "sync.join" t.spin (fun () ->
        match t.state with
        | Done _ | Raised _ -> K.Go ignore
        | Running -> K.Wait (fun w -> t.joiners <- w :: t.joiners));
    match t.state with
    | Done v -> v
    | Raised e -> raise e
    | Running -> assert false

  (* ---- alerts (Modula-3 Thread.Alert / TestAlert / AlertWait) ---- *)

  let test_alert () =
    let st = my_state () in
    if st.alerted then begin
      st.alerted <- false;
      true
    end
    else false

  let alert (t : 'a t) =
    let st = t.astate in
    st.alerted <- true;
    (* wake it if it is blocked on a condition *)
    match st.waiting_on with
    | Some c -> Condition.broadcast c
    | None -> ()

  let alert_wait m c =
    let st = my_state () in
    if st.alerted then begin
      st.alerted <- false;
      raise Alerted
    end;
    st.waiting_on <- Some c;
    Condition.wait m c;
    st.waiting_on <- None;
    if st.alerted then begin
      st.alerted <- false;
      (* Modula-3 semantics: the mutex is held when Alerted is raised *)
      raise Alerted
    end
end
