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

exception Abandoned
(** What {!throw}, {!throw_exn}, {!leave} and {!discard} unwind a fiber
    with to end it.  Client code never raises it.  The frames it passes
    through run no client code — a catch-all re-raises it, a bracket skips
    its release ([Kont_util.protect]) — and it must reach the fiber's
    base. *)

exception Abandon_failed of string
(** Raised (through the backend's [run]) when a fiber being ended does
    anything but let {!Abandoned} reach its base: it suspends while
    unwinding, swallows the exception and returns, or raises something
    else.  The string says which. *)

val suspensions : unit -> int
(** Number of {!suspend}s the calling domain has performed since it
    started — a host-side cost counter (each suspension is one
    effect-handler round-trip); a run's count is the difference of two
    readings.  Virtual time is unaffected.  Each domain counts its own in
    a domain-local cell, so the count is exact for a run that stays on one
    domain (the simulator's) and covers only the calling domain's share of
    a run on parallel domains. *)

val live_fibers : unit -> int
(** Fibers started minus fibers ended, summed over every domain — a
    host-side count of the fiber stacks the platform holds.  A [run] that
    returns with no continuation left suspended brings it back to its
    value before the run. *)

val suspend : ('a cont -> action) -> 'a
(** [suspend f] captures the current fiber as a continuation [c] and runs
    [f c] {e in the proc-loop context} (outside the fiber).  The action
    returned by [f] tells the proc what to do next.  The fiber restarts when
    some proc executes [Resume (c, v)]; [suspend] then returns [v]. *)

val leave : (unit -> action) -> 'a
(** [leave f] ends the current fiber — unwinds it with {!Abandoned}, which
    frees its stack — and then tells the proc to do [f ()], evaluated in
    the proc-loop context.  Never returns.  Every transfer that drops the
    current computation ({!throw}, [release_proc]) goes through it. *)

val discard : 'a cont -> unit
(** [discard c] ends the fiber suspended at [c] without resuming it, as
    {!leave} ends the current one — for a continuation nobody will resume,
    such as one a stopped run leaves behind or one a full proc pool
    refused.  One-shot like a resume. *)

val callcc : ('a cont -> 'a) -> 'a
(** SML-style [callcc].  [callcc f] binds the current continuation to [c] and
    evaluates [f c]; if [f] returns [v] normally, [callcc] returns [v]; if
    [f] throws to [c] via {!throw}, [callcc] "returns" the thrown value; if
    [f] raises, the exception propagates to [callcc]'s caller.  The body
    runs in a fresh fiber, which every way out of it ends: a normal return
    or an exception throws to [c], and a throw elsewhere ends it too. *)

val throw : 'a cont -> 'a -> 'b
(** [throw c v] ends the current fiber, freeing its stack, and resumes [c]
    with [v].  Never returns. *)

val throw_exn : 'a cont -> exn -> 'b
(** [throw_exn c e] ends the current fiber, freeing its stack, and resumes
    [c] by raising [e] at its suspension point.  Never returns. *)

val resume : 'a cont -> 'a -> action
(** Resume a suspended fiber with a value; returns the action produced at
    its next suspension point, or at its end an engine-private one that
    only {!trampoline} interprets.  Enforces one-shotness. *)

val trampoline : on_exn:(exn -> action) -> action -> action
(** [trampoline ~on_exn a] interprets [Resume], [Raise] and [Start] until
    some other action comes back — [Stop] or a backend directive — and
    returns it.  Each [Start] runs a fresh fiber: its normal return is
    [Stop].  [on_exn e] decides the next action for every exception: one
    that escaped a fiber, and one raised while resuming, which is a
    one-shot violation ({!Already_resumed}) or a suspend body's.  No
    exception escapes the trampoline itself. *)
