(** The shared telemetry event model.

    One structured event type for every layer of the platform: the
    simulator's scheduler/GC/proc events (formerly [Sim_trace.event]), the
    thread package's fork/switch/steal events, lock acquisition, and
    blocking/wakeup in the synchronization, select and CML layers.

    Every event carries a [clock] timestamp whose unit is backend-defined:
    virtual cycles on the simulator, host nanoseconds on the real backends
    (the [TELEMETRY] capability's [ts] provides it).  Events are plain
    immutable values; they are only ever constructed behind an
    [enabled ()] guard, so a disabled platform allocates nothing. *)

type category = Sched | Proc | Lock | Gc | Sync | Select | Cml

val category_name : category -> string
(** Lower-case label used in the JSONL encoding. *)

type gc_kind =
  | Minor  (** proc-local minor collection; other procs keep running *)
  | Major  (** stop-the-world collection (the historical [stw] model) *)
  | Par  (** stop-the-world with the copy split over parallel collectors *)

type t =
  | Dispatch of { proc : int; clock : int }
      (** the scheduler handed the proc to its pending action *)
  | Freed of { proc : int; clock : int }  (** the proc was released *)
  | Acquired of { proc : int; by : int; clock : int }
  | Gc_start of {
      clock : int;
      region_words : int;
      kind : gc_kind;
      waiters : int;
          (** procs parked at the barrier (0 for a proc-local minor) *)
    }
  | Gc_end of { clock : int; duration : int }
  | Coalesced of { proc : int; clock : int; cycles : int }
      (** [cycles] of charges the simulator's run-ahead fast path absorbed
          inline since the proc's last dispatch (see {!Sim.Mp_sim}) *)
  | Fork of { proc : int; clock : int; thread : int }
  | Switch of { proc : int; clock : int; thread : int }
      (** the thread scheduler dispatched [thread] on [proc] *)
  | Steal of { proc : int; clock : int }
      (** [proc] stole work from another proc's run queue *)
  | Queue_depth of { proc : int; clock : int; depth : int }
      (** run-queue depth sample (taken at fork) *)
  | Lock_acquired of { proc : int; clock : int }
  | Lock_contended of { proc : int; clock : int; spins : int }
      (** a [lock] that had to retry, with its failed-probe count *)
  | Blocked of { proc : int; clock : int; thread : int; on : string }
      (** [thread] parked its continuation on construct [on] *)
  | Wakeup of { proc : int; clock : int; thread : int; on : string }
      (** [thread] was made ready again by construct [on] *)
  | Step of { proc : int; clock : int; op : string }
      (** one serialization point in an [mp_check] exploration: [proc]
          performed visible operation [op] at decision index [clock].
          Classified [Lock] when [op] starts with "lock", [Sched]
          otherwise. *)

val clock_of : t -> int

val category_of : t -> category
(** [Blocked]/[Wakeup] are classified by the dotted prefix of their [on]
    site ("cml*" → [Cml], "select*" → [Select], anything else → [Sync]). *)

val pp : Format.formatter -> t -> unit
(** Human-readable one-line rendering.  The output for the six original
    simulator events ([Dispatch]..[Coalesced]) is stable — existing
    trace-based tests and tooling rely on it. *)

val to_json : t -> string
(** One JSON object (no trailing newline):
    [{"ts":..,"cat":"sched","ev":"dispatch","proc":0}]. *)
