(** Continuation plumbing shared by thread packages. *)

val cont_of_thunk : on_return:(unit -> unit) -> (unit -> unit) -> unit Engine.cont
(** [cont_of_thunk ~on_return f] manufactures a continuation that, when
    thrown to (or passed to [acquire_proc]), runs [f ()] and then
    [on_return ()] (e.g. [release_proc]).  The caller continues immediately;
    the thunk runs only when the continuation is resumed, on whichever proc
    resumes it, at the base of its own fiber: an exception it raises
    escapes that fiber, which the backend's [run] reports. *)

val unit_cont_of : 'a Engine.cont -> 'a -> unit Engine.cont
(** [unit_cont_of k v] converts a typed continuation and a value into a
    [unit cont] that delivers [v] to [k] when thrown to — the paper's
    [reschedule_thread] conversion (Figure 5's caption). *)

val protect : finally:(unit -> unit) -> (unit -> 'a) -> 'a
(** [protect ~finally f] runs [f ()], then [finally ()] whether [f]
    returned or raised — except when [f]'s fiber is being ended
    ({!Engine.Abandoned}): those frames run no client code, so the release
    is skipped, as if the fiber had been dropped mid-section.  The
    release brackets of thread-level locks use it instead of
    [Fun.protect]. *)
