open Mp
module Fifo = Queues.Fifo_queue

module Make (P : Mp.Mp_intf.PLATFORM_INT) (S : Mpthreads.Thread_intf.TIMED_SCHED) =
struct
  (* A commitment point: the first claimant wins the synchronization, exactly
     the [committed] mutex-lock protocol of the paper's Figure 5. *)
  type commit = P.Lock.mutex_lock

  type 'b sndr_entry = {
    s_commit : commit;
    s_value : 'b;
    s_resume : unit -> unit; (* reschedule the blocked sender *)
  }

  type 'b rcvr_entry = {
    r_commit : commit;
    r_deliver : 'b -> unit; (* reschedule the blocked receiver with a value *)
  }

  type 'a chan = {
    sndrs : 'a sndr_entry Fifo.queue;
    rcvrs : 'a rcvr_entry Fifo.queue;
  }

  type _ event =
    | E_always : 'a -> 'a event
    | E_never : 'a event
    | E_send : 'b chan * 'b -> unit event
    | E_recv : 'b chan -> 'b event
    | E_timeout : float -> unit event
    | E_choose : 'a event list -> 'a event
    | E_wrap : 'b event * ('b -> 'a) -> 'a event
    | E_wrap_abort : 'a event * (unit -> unit) -> 'a event
    | E_guard : (unit -> 'a event) -> 'a event

  (* A base event after forcing guards and composing wrappers; the result
     of the whole synchronization is a thunk run by the syncing thread. *)
  type 'a base =
    | BSend : 'b chan * 'b * (unit -> 'a) -> 'a base
    | BRecv : 'b chan * ('b -> 'a) -> 'a base
    | BAlways of (unit -> 'a)
    | BTimeout : float * (unit -> 'a) -> 'a base
        (* relative seconds, resolved against [S.now] at registration *)

  (* The single global runtime lock of the paper's CML prototype. *)
  let global_lock = P.Lock.mutex_lock ()

  (* Parks and wakes report through the shared park module under [cml.*]:
     a Blocked event when a sync parks its continuation, a Wakeup when a
     partner (or timeout) commits it.  Emitted outside the global lock
     where possible, and never from inside a suspend body. *)
  module K = Mpthreads.Park.Make (P) (S)

  let cml = K.layer "cml"
  let rng = ref (Random.State.make [| 0xc31 |])
  let set_seed seed = rng := Random.State.make [| seed |]

  let channel () = { sndrs = Fifo.create (); rcvrs = Fifo.create () }
  let spawn = S.fork
  let send_evt ch v = E_send (ch, v)
  let recv_evt ch = E_recv ch
  let always v = E_always v
  let never = E_never
  let timeout_evt d = E_timeout d
  let choose evs = E_choose evs
  let wrap ev f = E_wrap (ev, f)
  let wrap_abort ev abort = E_wrap_abort (ev, abort)
  let guard f = E_guard f

  (* Flatten to base events, composing wrappers outward.  Each [wrap_abort]
     gets a "won" cell shared by every base beneath it and is recorded in
     [all_aborts]; after the synchronization, an abort runs iff none of its
     bases was the chosen one (so an abort over a [never] always runs, and
     an abort over the whole winning choice never does). *)
  let rec flatten :
      type a b.
      a event ->
      (a -> b) ->
      bool ref list ->
      ((unit -> unit) * bool ref) list ref ->
      (b base * bool ref list) list =
   fun ev f cells all_aborts ->
    match ev with
    | E_always v -> [ (BAlways (fun () -> f v), cells) ]
    | E_never -> []
    | E_send (ch, v) -> [ (BSend (ch, v, fun () -> f ()), cells) ]
    | E_recv ch -> [ (BRecv (ch, f), cells) ]
    | E_timeout d -> [ (BTimeout (d, fun () -> f ()), cells) ]
    | E_choose evs -> List.concat_map (fun e -> flatten e f cells all_aborts) evs
    | E_wrap (e, g) -> flatten e (fun x -> f (g x)) cells all_aborts
    | E_wrap_abort (e, abort) ->
        let cell = ref false in
        all_aborts := (abort, cell) :: !all_aborts;
        flatten e f (cell :: cells) all_aborts
    | E_guard g -> flatten (g ()) f cells all_aborts

  (* Post-compose a base's delivery so that committing it records which
     branch won (for running the losers' abort actions afterwards). *)
  let mark_chosen : type a. int -> int ref -> a base -> a base =
   fun i chosen base ->
    let tag f x =
      chosen := i;
      f x
    in
    match base with
    | BAlways f -> BAlways (tag f)
    | BSend (ch, v, w) -> BSend (ch, v, tag w)
    | BRecv (ch, w) -> BRecv (ch, tag w)
    | BTimeout (d, w) -> BTimeout (d, tag w)

  let shuffle l =
    let arr = Array.of_list l in
    for i = Array.length arr - 1 downto 1 do
      let j = Random.State.int !rng (i + 1) in
      let t = arr.(i) in
      arr.(i) <- arr.(j);
      arr.(j) <- t
    done;
    Array.to_list arr

  (* Claim a waiting partner from [q], dropping stale (already-committed)
     entries.  Runs under the global lock. *)
  let rec claim_from q ~try_claim =
    match Fifo.deq_opt q with
    | None -> None
    | Some entry -> (
        match try_claim entry with
        | Some _ as won -> won
        | None -> claim_from q ~try_claim)

  (* Phase 1, before any continuation is captured: look for an immediately
     available partner.  Under global lock. *)
  let poll_base : type a. a base -> (unit -> a) option = function
    | BAlways f -> Some f
    | BTimeout (d, f) -> if d <= 0. then Some f else None
    | BSend (ch, v, wrapped) ->
        claim_from ch.rcvrs ~try_claim:(fun r ->
            if P.Lock.try_lock r.r_commit then begin
              r.r_deliver v;
              Some wrapped
            end
            else None)
    | BRecv (ch, wrapf) ->
        claim_from ch.sndrs ~try_claim:(fun s ->
            if P.Lock.try_lock s.s_commit then begin
              s.s_resume ();
              Some (fun () -> wrapf s.s_value)
            end
            else None)

  let rec poll_all = function
    | [] -> None
    | b :: rest -> (
        match poll_base b with Some _ as hit -> hit | None -> poll_all rest)

  (* Phase 2, after a miss: capture the continuation under the global lock
     and park it on every base.  [k] expects the result thunk. *)
  let register_base :
      type a. a base -> commit -> (unit -> a) Engine.cont -> int -> unit =
   fun base commit k tid ->
    match base with
    | BAlways _ -> assert false (* always-available: poll would have taken it *)
    | BTimeout (d, wrapped) ->
        S.at (S.now () +. d) (fun () ->
            if P.Lock.try_lock commit then
              K.wake_with cml "cml.timeout" (k, wrapped, tid))
    | BSend (ch, v, wrapped) ->
        Fifo.enq ch.sndrs
          {
            s_commit = commit;
            s_value = v;
            s_resume = (fun () -> K.wake_with cml "cml.sync" (k, wrapped, tid));
          }
    | BRecv (ch, wrapf) ->
        Fifo.enq ch.rcvrs
          {
            r_commit = commit;
            r_deliver =
              (fun v -> K.wake_with cml "cml.sync" (k, (fun () -> wrapf v), tid));
          }

  let sync ev =
    let all_aborts = ref [] in
    match flatten ev Fun.id [] all_aborts with
    | [] when !all_aborts = [] ->
        (* never: block this thread forever *)
        Engine.callcc (fun _ -> K.block cml "cml.never" (S.id ()))
    | tagged ->
        let chosen = ref (-1) in
        let tagged = shuffle tagged in
        let bases =
          List.mapi (fun i (b, _) -> mark_chosen i chosen b) tagged
        in
        let cell_lists = List.map snd tagged in
        P.Lock.lock global_lock;
        let thunk =
          match poll_all bases with
          | Some thunk ->
              P.Lock.unlock global_lock;
              thunk
          | None ->
              Engine.callcc (fun k ->
                  let tid = S.id () in
                  let commit = P.Lock.mutex_lock () in
                  List.iter (fun b -> register_base b commit k tid) bases;
                  P.Lock.unlock global_lock;
                  K.block cml "cml.sync" tid)
        in
        let v = thunk () in
        (* mark the winner's enclosing wrap_aborts, then run the rest (in
           the syncing thread, after delivery) *)
        List.iteri
          (fun i cells -> if i = !chosen then List.iter (fun c -> c := true) cells)
          cell_lists;
        List.iter
          (fun (abort, cell) -> if not !cell then abort ())
          (List.rev !all_aborts);
        v

  let select evs = sync (E_choose evs)
  let send ch v = sync (E_send (ch, v))
  let recv ch = sync (E_recv ch)
  let sleep d = sync (E_timeout d)

  let recv_timeout ch d =
    select
      [
        E_wrap (E_recv ch, fun v -> Some v);
        E_wrap (E_timeout d, fun () -> None);
      ]

  let recv_poll ch =
    P.Lock.lock global_lock;
    let hit = poll_base (BRecv (ch, Fun.id)) in
    P.Lock.unlock global_lock;
    Option.map (fun deliver -> deliver ()) hit
end
