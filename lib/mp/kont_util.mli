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
