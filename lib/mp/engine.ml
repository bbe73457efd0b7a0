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

type _ Effect.t += Suspend : ('a cont -> action) -> 'a Effect.t

exception Already_resumed
exception Unhandled_action

(* Host-side instrumentation: every suspension is one effect-handler
   round-trip, the unit of cost the simulator's run-ahead fast path avoids.
   Domain-local (DLS), not atomic: an atomic would cost a fenced RMW on the
   hottest path in the system, and a shared plain ref would be corrupted by
   the parallel sweep driver running independent simulator instances on
   separate domains.  Each domain counts its own suspensions exactly, which
   is what per-run accounting needs — a simulator run never migrates
   between domains. *)
let suspension_key = Domain.DLS.new_key (fun () -> ref 0)

let suspensions () = !(Domain.DLS.get suspension_key)
let reset_suspensions () = Domain.DLS.get suspension_key := 0

let suspend f =
  incr (Domain.DLS.get suspension_key);
  Effect.perform (Suspend f)

let throw c v = suspend (fun _abandoned -> Resume (c, v))

let throw_exn c e = suspend (fun _abandoned -> Raise (c, e))

(* The body runs in a fresh fiber so that a normal return can be routed back
   to the captured continuation; a body ending in [throw]/[dispatch] simply
   abandons that fiber.  This preserves SML callcc semantics under the
   one-shot discipline. *)
let callcc f =
  suspend (fun c ->
      Start
        (fun () ->
          match f c with
          | v -> throw c v
          | exception e -> throw_exn c e))

let run_fiber ~on_exn f =
  Effect.Deep.match_with f ()
    {
      retc = (fun () -> Stop);
      exnc = on_exn;
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Suspend f ->
              Some
                (fun (k : (a, action) Effect.Deep.continuation) ->
                  f { k; used = Atomic.make false })
          | _ -> None);
    }

let claim c = if not (Atomic.compare_and_set c.used false true) then raise Already_resumed

let resume c v =
  claim c;
  Effect.Deep.continue c.k v

let resume_exn c e =
  claim c;
  Effect.Deep.discontinue c.k e

(* An exception out of a step did not escape a fiber (the fiber's handler
   routes those to [on_exn] already): it was raised while resuming, i.e. a
   second resumption's [Already_resumed], or by a suspend body.  It takes
   the same path, so no exception leaves the trampoline and kills the proc
   running it. *)
let rec trampoline ~on_exn action =
  match action with
  | Resume (c, v) -> trampoline ~on_exn (try resume c v with e -> on_exn e)
  | Raise (c, e) -> trampoline ~on_exn (try resume_exn c e with e -> on_exn e)
  | Start f -> trampoline ~on_exn (try run_fiber ~on_exn f with e -> on_exn e)
  | a -> a
