type action = ..

type 'a cont = {
  k : ('a, action) Effect.Deep.continuation;
  used : bool Atomic.t;
}

type action +=
  | Resume : 'a cont * 'a -> action
  | Raise : 'a cont * exn -> action
  | Start of (unit -> unit)
  | Stop

(* How a fiber's handler reports its end: private to the engine.  [Ended]
   is the end of a fiber that let [Abandoned] reach its base; [Failed e]
   is an exception that escaped it, which the trampoline hands to
   [on_exn]. *)
type action += Ended | Failed of exn

type _ Effect.t += Suspend : ('a cont -> action) -> 'a Effect.t

exception Already_resumed
exception Unhandled_action
exception Abandoned
exception Abandon_failed of string

(* Host-side instrumentation, one record per domain.  Every suspension is
   one effect-handler round-trip, the unit of cost the simulator's
   run-ahead fast path avoids.  Domain-local (DLS), not atomic: an atomic
   would cost a fenced RMW on the hottest path in the system, and a shared
   plain ref would be corrupted by parallel sweeps running independent
   simulator instances on separate domains.  Each domain
   counts its own suspensions exactly, which is what per-run accounting
   needs — a simulator run never migrates between domains.  Fibers do
   migrate (a fiber may start on one domain and end on another), so the
   started/ended counts are summed over every domain's record when read;
   a domain folds its net count into [retired] when it exits. *)
type counters = {
  mutable suspensions : int;
  mutable started : int;
  mutable ended : int;
  mutable ending : bool;  (* [end_fiber] is unwinding a fiber here *)
}

let registry_m = Mutex.create ()
let registry : counters list ref = ref []
let retired = ref 0

let counters_key =
  Domain.DLS.new_key (fun () ->
      let c = { suspensions = 0; started = 0; ended = 0; ending = false } in
      Mutex.protect registry_m (fun () -> registry := c :: !registry);
      Domain.at_exit (fun () ->
          Mutex.protect registry_m (fun () ->
              retired := !retired + c.started - c.ended;
              registry := List.filter (fun c' -> c' != c) !registry));
      c)

let suspensions () = (Domain.DLS.get counters_key).suspensions

let live_fibers () =
  Mutex.protect registry_m (fun () ->
      List.fold_left (fun n c -> n + c.started - c.ended) !retired !registry)

let suspend f =
  let c = Domain.DLS.get counters_key in
  if c.ending then raise (Abandon_failed "suspended while unwinding");
  c.suspensions <- c.suspensions + 1;
  Effect.perform (Suspend f)

let fiber_ended () =
  let c = Domain.DLS.get counters_key in
  c.ended <- c.ended + 1

let fiber_handler =
  {
    Effect.Deep.retc =
      (fun () ->
        fiber_ended ();
        Stop);
    exnc =
      (fun e ->
        fiber_ended ();
        match e with Abandoned -> Ended | e -> Failed e);
    effc =
      (fun (type a) (eff : a Effect.t) ->
        match eff with
        | Suspend f ->
            Some
              (fun (k : (a, action) Effect.Deep.continuation) ->
                f { k; used = Atomic.make false })
        | _ -> None);
  }

let run_fiber f =
  let c = Domain.DLS.get counters_key in
  c.started <- c.started + 1;
  Effect.Deep.match_with f () fiber_handler

(* Unwind the fiber suspended at [k] with [Abandoned], on this domain and
   before anything else runs here, and check that it ended.  While it
   unwinds, [suspend] raises instead of handing the fiber to a backend.
   The handler turns every exception into [Ended] or [Failed], so
   [discontinue] returns. *)
let end_fiber k =
  let c = Domain.DLS.get counters_key in
  c.ending <- true;
  let a = Effect.Deep.discontinue k Abandoned in
  c.ending <- false;
  match a with
  | Ended -> ()
  | Failed e -> raise (Abandon_failed ("raised " ^ Printexc.to_string e))
  | _ -> raise (Abandon_failed "did not end")

let leave f =
  suspend (fun c ->
      end_fiber c.k;
      f ())

let claim c = if not (Atomic.compare_and_set c.used false true) then raise Already_resumed

let discard c =
  claim c;
  end_fiber c.k

let throw c v = leave (fun () -> Resume (c, v))
let throw_exn c e = leave (fun () -> Raise (c, e))

(* The body runs in a fresh fiber so that a normal return can be routed back
   to the captured continuation.  Every way out of it — a return, an
   exception, a throw elsewhere — ends that fiber, and [Abandoned] passes
   through to its base.  This preserves SML callcc semantics under the
   one-shot discipline. *)
let callcc f =
  suspend (fun c ->
      Start
        (fun () ->
          match f c with
          | v -> throw c v
          | exception Abandoned -> raise Abandoned
          | exception e -> throw_exn c e))

let resume c v =
  claim c;
  Effect.Deep.continue c.k v

let resume_exn c e =
  claim c;
  Effect.Deep.discontinue c.k e

(* An exception raised by a step did not escape a fiber (those come back
   as [Failed]): it was raised while resuming, i.e. a second resumption's
   [Already_resumed], or by a suspend body.  It takes the same path, so no
   exception leaves the trampoline and kills the proc running it. *)
let rec trampoline ~on_exn action =
  match action with
  | Resume (c, v) -> trampoline ~on_exn (try resume c v with e -> on_exn e)
  | Raise (c, e) -> trampoline ~on_exn (try resume_exn c e with e -> on_exn e)
  | Start f -> trampoline ~on_exn (try run_fiber f with e -> on_exn e)
  | Failed e -> trampoline ~on_exn (on_exn e)
  | a -> a
