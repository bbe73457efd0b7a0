(** A telemetry instance: the state behind one platform's [TELEMETRY]
    capability.

    An instance is [streams] independent event streams (one per concurrent
    emitter — per-domain on the domains backend, a single stream on the
    uniprocessor and the simulator, whose emission is serialized by
    construction), a counter registry, and an optional external sink.
    [stream_of] routes each emission to the caller's stream so rings are
    single-writer and recording is race-free without locks; [now_ts]
    supplies the backend clock (virtual cycles or host nanoseconds).

    Disabled (the default) it is a static no-op: [emit] is one boolean
    load, and call sites guard event {e construction} behind [enabled] so
    nothing is allocated either. *)

type t

val create :
  ?streams:int -> stream_of:(unit -> int) -> now_ts:(unit -> int) -> unit -> t
(** [streams] defaults to 1.  Out-of-range [stream_of] results (e.g. a
    domains emission from outside any proc) fall back to stream 0. *)

val enabled : t -> bool

val ts : t -> int
(** Current timestamp from the backend clock. *)

val counters : t -> Counters.t
(** The registry is live even while event emission is disabled. *)

val enable_memory : ?capacity:int -> t -> unit
(** Allocate one ring of [capacity] (default 4096) per stream — idempotent,
    existing rings and their contents survive — and start emitting. *)

val attach_sink : t -> Sink.t -> unit
(** Forward every emitted event to [sink] (in addition to any memory
    rings) and start emitting. *)

val disable : t -> unit
(** Flush and drop the sink, drop the rings, stop emitting.  Counters are
    unaffected. *)

val emit : t -> Event.t -> unit
(** No-op unless enabled. *)

val ring : t -> int -> Event.t Ring.t option
(** The ring of a given stream, while {!enable_memory}'s rings are up. *)

val events : t -> Event.t list
(** All retained events, merged across streams in timestamp order (stable:
    single-stream instances keep exact emission order). *)

val total_recorded : t -> int
(** Summed over streams, including overwritten events. *)
