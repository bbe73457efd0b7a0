(** Fiber engine: first-class one-shot continuations over effect handlers.

    This is the OCaml analog of SML/NJ's [callcc]/[throw], restricted to the
    one-shot discipline that thread schedulers obey: every captured
    continuation is resumed at most once.  The engine, including the
    {!trampoline} that interprets control transfers, is shared by every MP
    backend; backends differ only in the directives they add to
    {!type:action} and in what they do with them. *)

type action = ..
(** What a proc should do next.  Extensible so that backends (notably the
    simulator) can add their own scheduling directives. *)

type 'a cont
(** A suspended computation expecting an ['a].  One-shot: resuming it twice
    raises {!Already_resumed}. *)

type action +=
  | Resume : 'a cont * 'a -> action  (** resume a continuation with a value *)
  | Raise : 'a cont * exn -> action  (** resume a continuation with an exception *)
  | Start of (unit -> unit)          (** run a fresh fiber *)
  | Stop                             (** release the current proc *)

exception Already_resumed
(** Raised on a second resumption of a one-shot continuation — always a
    client protocol violation (e.g. a thread rescheduled twice). *)

exception Unhandled_action
(** Raised by a backend on a directive it does not interpret. *)

val suspensions : unit -> int
(** Number of {!suspend}s performed process-wide since the last
    {!reset_suspensions} — a host-side cost counter (each suspension is one
    effect-handler round-trip).  Virtual time is unaffected.  The counter
    is deliberately not atomic: it is exact on single-domain backends (the
    simulator) and approximate under parallel host execution. *)

val reset_suspensions : unit -> unit

val suspend : ('a cont -> action) -> 'a
(** [suspend f] captures the current fiber as a continuation [c] and runs
    [f c] {e in the proc-loop context} (outside the fiber).  The action
    returned by [f] tells the proc what to do next.  The fiber restarts when
    some proc executes [Resume (c, v)]; [suspend] then returns [v]. *)

val callcc : ('a cont -> 'a) -> 'a
(** SML-style [callcc].  [callcc f] binds the current continuation to [c] and
    evaluates [f c]; if [f] returns [v] normally, [callcc] returns [v]; if
    [f] throws to [c] via {!throw}, [callcc] "returns" the thrown value; if
    [f] raises, the exception propagates to [callcc]'s caller.  Implemented
    by running the body in a fresh fiber, which is abandoned when the body
    throws elsewhere. *)

val throw : 'a cont -> 'a -> 'b
(** [throw c v] abandons the current computation and resumes [c] with [v].
    Never returns. *)

val throw_exn : 'a cont -> exn -> 'b
(** [throw_exn c e] abandons the current computation and resumes [c] by
    raising [e] at its suspension point.  Never returns. *)

val resume : 'a cont -> 'a -> action
(** Resume a suspended fiber with a value; returns the action produced at
    its next suspension point.  Enforces one-shotness. *)

val trampoline : on_exn:(exn -> action) -> action -> action
(** [trampoline ~on_exn a] interprets [Resume], [Raise] and [Start] until
    some other action comes back — [Stop] or a backend directive — and
    returns it.  Each [Start] runs a fresh fiber: its normal return is
    [Stop].  [on_exn e] decides the next action for every exception: one
    that escaped a fiber, and one raised while resuming, which is a
    one-shot violation ({!Already_resumed}) or a suspend body's.  No
    exception escapes the trampoline itself. *)
