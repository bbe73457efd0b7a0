(** Interfaces of the MP multiprocessing platform (paper, Figure 2).

    A backend provides [PROC] (processor management and per-proc data),
    [LOCK] (mutex spin locks) and — beyond the paper, to support the
    simulated multiprocessor — [WORK] (virtual-cost charging and safe
    points) and [TELEMETRY] (structured trace events and counters).
    Client packages (thread systems, channels, CML) are functors over
    [PLATFORM].  What every backend shares is defined here once: the
    [run] {!outcome}, the default {!locked}, the atomic-cell signature
    {!PRIMS}, the cache-line {!padded} copy and the real backends'
    charge-free {!Free_work}. *)

exception No_More_Procs
(** Raised by [acquire_proc] when every proc is in use.  Shared across all
    backends so that client handlers are portable. *)

exception Deadlock of string
(** Raised by [run] when every proc has been released but the root
    computation never produced a result. *)

(** Client-defined per-proc private datum (paper §3.2). *)
module type DATUM = sig
  type t

  val initial : t
  (** Datum of the root proc. *)
end

(** First-class continuations; re-export of {!Engine} operations. *)
module type KONT = sig
  type 'a cont = 'a Engine.cont

  val callcc : ('a cont -> 'a) -> 'a
  val throw : 'a cont -> 'a -> 'b
  val throw_exn : 'a cont -> exn -> 'b
end

(** Processor management (paper §3.1–3.2). *)
module type PROC = sig
  type proc_datum
  type proc_state = PS of unit Engine.cont * proc_datum

  exception No_More_Procs

  val acquire_proc : proc_state -> unit
  (** Start a new proc executing the given continuation, with the given
      private datum.  Returns to the caller, which keeps its own proc.
      @raise No_More_Procs when the proc limit is reached. *)

  val release_proc : unit -> 'a
  (** Stop executing and return the current physical processor to the
      system.  The current computation is ended, and its stack freed
      (capture it first with [callcc] if it must survive).  Never
      returns. *)

  val initial_datum : proc_datum

  val get_datum : unit -> proc_datum
  (** Read the calling proc's private datum. *)

  val set_datum : proc_datum -> unit
  (** Write the calling proc's private datum. *)

  (* Extensions beyond the paper's signature, used by schedulers/benchmarks. *)

  val self : unit -> int
  (** Index of the calling proc; the root proc is 0. *)

  val max_procs : unit -> int
  (** Compile-time proc limit of this platform instance (paper §5). *)

  val live_procs : unit -> int
  (** Number of procs currently acquired (including the root). *)

  val nodes : unit -> int
  (** Number of interconnect nodes the procs are grouped into.  1 on every
      backend except a simulator configured with a hierarchical (NUMA)
      machine; node-aware schedulers use it to keep work node-local. *)

  val node_of : int -> int
  (** Node of a proc index (always 0 when {!nodes} is 1).  Total over
      [0 .. max_procs - 1] and constant for the life of the platform, so
      schedulers may consult it from any proc without synchronization. *)
end

(** Mutual exclusion (paper §3.3). *)
module type LOCK = sig
  type mutex_lock

  val mutex_lock : unit -> mutex_lock
  (** A fresh lock in unlocked state. *)

  val try_lock : mutex_lock -> bool
  (** Atomically attempt to set the lock; [true] on success. *)

  val lock : mutex_lock -> unit
  (** Spin until the lock is acquired.  Equivalent to
      [while not (try_lock l) do () done], but a platform may spin more
      efficiently (e.g. with backoff). *)

  val unlock : mutex_lock -> unit
  (** Release the lock.  May be called by any proc, not necessarily the one
      that set it. *)

  val locked : mutex_lock -> (unit -> 'a) -> 'a
  (** [locked l f] runs [f ()] with [l] held and releases it afterwards,
      even if [f] raises.  Equivalent to [lock l; ...f ()...; unlock l],
      but a platform may fuse the acquire/section/release into a cheaper
      episode — the simulator, for instance, runs the whole critical
      section under one scheduler interaction.  [f] must itself be free of
      charges and suspensions (no [Work.step]/[charge]/[idle_until] and
      no blocking), which is the natural shape for the short
      pointer-swinging sections the run-queue and thread packages use. *)
end

(** The default {!LOCK.locked}: plain acquire, section, release, also when
    the section raises.  Every lock but the simulator's fused episode uses
    it. *)
let locked ~lock ~unlock l f =
  lock l;
  match f () with
  | v ->
      unlock l;
      v
  | exception e ->
      unlock l;
      raise e

(** Atomic cells: the machine-dependent core of [Lock] (paper §5: atomic
    exchange on the 88100 and the Sequent, hardware lock registers on the
    SGI).  The lock algorithms and the lock-free queue are functors over
    it: {!Atomic_prims} runs them on [Stdlib.Atomic], [Locks.Charged_prims]
    charges each access through a platform's [Work], and mp_check's
    [Prims] makes each access a serialization point. *)
module type PRIMS = sig
  type 'a cell

  val make : 'a -> 'a cell
  val get : 'a cell -> 'a
  val set : 'a cell -> 'a -> unit
  val exchange : 'a cell -> 'a -> 'a
  val compare_and_set : 'a cell -> 'a -> 'a -> bool
  val fetch_and_add : int cell -> int -> int

  val unsafe_peek : 'a cell -> 'a
  (** A racy, observation-only read: never a serialization point under
      mp_check and never charged.  Scheduler idle predicates
      ([Work.idle_until ~ready]) must be side-effect- and charge-free, so
      they may only look at cells through [unsafe_peek].  The [ws] steal
      sweep also uses it as a filter, to skip a queue that looks empty;
      a queue it does probe is re-read with [get] and claimed by CAS, so
      a stale peek costs a wasted probe or a missed one, never a wrong
      result.  Algorithm code must keep using [get]. *)

  val pause : unit -> unit
  (** One spin-wait iteration. *)

  val pause_n : int -> unit
  (** Backoff pause of [n] units. *)

  val on_spin : unit -> unit
  (** Account one failed acquisition attempt (contention statistics). *)
end

(** [padded x] is a copy of the record or atomic [x] followed by unused
    words, so that no other block shares a cache line (or the adjacent
    line a prefetcher pairs with it) with [x]'s fields.  A word one proc
    writes often then never invalidates the line another proc is using
    (false sharing).  OCaml 5.1 has no [Atomic.make_contended]; this is
    the [copy_as_padded] trick of the multicore-magic library.  [x] must
    be a block of ordinary fields — not a float record or float array —
    and must not be compared structurally (the padding is part of it). *)
let padded (x : 'a) : 'a =
  let padding = 15 in
  let r = Obj.repr x in
  let n = Obj.size r in
  let b = Obj.new_block (Obj.tag r) (n + padding) in
  for i = 0 to n - 1 do
    Obj.set_field b i (Obj.field r i)
  done;
  for i = n to n + padding - 1 do
    Obj.set_field b i (Obj.repr 0)
  done;
  Obj.obj b

(** {!PRIMS} over [Stdlib.Atomic].  Each cell is {!padded}; [on_spin]
    counts nothing, so no spinning domain writes a shared word. *)
module Atomic_prims : PRIMS = struct
  type 'a cell = 'a Atomic.t

  let make v = padded (Atomic.make v)
  let get = Atomic.get
  let set = Atomic.set
  let exchange = Atomic.exchange
  let compare_and_set = Atomic.compare_and_set
  let fetch_and_add = Atomic.fetch_and_add
  let unsafe_peek = Atomic.get
  let pause () = Domain.cpu_relax ()

  let pause_n n =
    for _ = 1 to n do
      Domain.cpu_relax ()
    done

  let on_spin () = ()
end

(** Virtual-cost charging and safe points.

    On real backends all charging operations are no-ops and [now] reads the
    wall clock.  On the simulator they advance the calling proc's virtual
    clock, generate memory-bus traffic and trigger simulated collections;
    they are also the points at which simulated preemption can occur. *)
module type WORK = sig
  val step : ?alloc_words:int -> instrs:int -> unit -> unit
  (** Account for [instrs] abstract instructions of client work, allocating
      [alloc_words] heap words (default: [instrs/5], the SML/NJ ratio of one
      word per 3–7 instructions, paper §5). *)

  val charge : int -> unit
  (** Account for raw virtual cycles (no allocation). *)

  type line
  (** A cache line holding one contended shared word (a lock or run-queue
      word).  The simulator tracks which nodes cache the line; on real
      backends (where the hardware coherence protocol does the job) lines
      carry no state and the operations below are free. *)

  val line : unit -> line
  (** A fresh line, cached nowhere. *)

  val read_line : line -> unit
  (** Record that the calling proc's node now caches the line (a read
      snoop).  Charge-free: the cost model prices reads through [charge]
      as before; this only feeds the sharing state {!write_line} consults. *)

  val write_line : line -> bytes:int -> unit
  (** One RMW/write bus transaction on the line: claim it exclusive for
      the calling proc's node and account [bytes] of bus traffic.  If no
      other node cached the line the transfer stays on the node's bus;
      otherwise it crosses the inter-node link and each remote copy is
      invalidated (counted under ["cache.invalidations"]).  No-op on real
      backends. *)

  val poll : unit -> unit
  (** Safe point: give the platform (and, through the poll hook, the thread
      package) a chance to preempt, as in the paper's timer-driven polling
      (§3.4). *)

  val set_poll_hook : (unit -> unit) -> unit
  (** Install the thread package's preemption check, invoked at each safe
      point. *)

  val idle_until : ready:(unit -> bool) -> unit
  (** Pause, accounted as idle time, until [ready ()] holds.  Reference
      semantics (and the behavior of every real backend): repeatedly
      pause one idle quantum, then evaluate [ready]; return as soon as it
      is true.  [ready] must be free of side effects and of
      charges: the simulator may evaluate it from scheduler context,
      outside the calling fiber, servicing the per-quantum checks without
      a suspension per quantum (quiescence-epoch coalescing).

      The wake contract: once [ready] has returned [false], it turns true
      only through a write followed by {!wake_idle} (in the same
      charge-free step, with no charge between them), through the acquire
      or release of a proc, or at the deadline last declared with
      {!idle_deadline}.  The simulator relies on it: after a failed poll
      the poller sleeps, and only those events make it poll again.  A
      write that turns a predicate true without the hint leaves the
      poller asleep (a [Checked] machine asserts that no skipped poll would
      have succeeded). *)

  val wake_idle : unit -> unit
  (** Charge-free hint, issued right after a write that can turn some
      {!idle_until} predicate true (a run-queue fill, a timer set, a pool's
      finish).  On the simulator it re-keys every sleeping poller at its
      first quantum boundary after the caller's current position; a no-op
      on every other backend.  Never charges and never suspends, so it may
      run inside a [Lock.locked] section. *)

  val idle_deadline : float -> unit
  (** Declare the earliest time, in {!now}'s units, at which an
      {!idle_until} predicate can turn true without a hinted write
      ([infinity]: none) — a thread package's earliest pending timer.
      Each declaration replaces the last; declare again whenever that time
      changes.  Charge-free; a no-op except on the simulator, whose
      sleeping pollers then wait in its ready set at the first quantum
      boundary at or past it. *)

  val now : unit -> float
  (** Seconds: virtual time on the simulator, wall clock otherwise. *)

  val note_queue_wait : seconds:float -> unit
  (** Attribute [seconds] the calling proc just spent blocked on a bounded
      queue (the caller brackets the blocking section with {!now}).  Pure
      accounting — never charges and never suspends; surfaced per proc as
      [Stats.queue_wait] on every backend, like GC-barrier stalls.  The
      wait's cycles are already charged (as idle/spin time) by the blocking
      path itself; without this note they are indistinguishable from
      out-of-work idling in the per-proc totals. *)
end

(** The charge-free half of {!WORK} on the real backends, where the
    hardware does what the simulator charges for: charges are no-ops,
    lines carry no state, [step] and [poll] are safe points that run the
    poll hook, and [now] is the wall clock.  Generative: each platform
    instance owns its hook. *)
module Free_work () = struct
  let hook = ref (fun () -> ())
  let step ?alloc_words:_ ~instrs:_ () = !hook ()
  let charge _ = ()

  type line = unit

  let line () = ()
  let read_line _ = ()
  let write_line _ ~bytes:_ = ()
  let poll () = !hook ()
  let set_poll_hook f = hook := f
  let wake_idle () = ()
  let idle_deadline _ = ()
  let now () = Unix.gettimeofday ()
end

(** Structured telemetry: typed trace events and named counters, emitted by
    the platform itself and by any client layer built over it (thread
    packages, locks, channels, CML).

    Timestamps come from the backend clock — the proc's virtual clock on
    the simulator, host nanoseconds on real backends — so one consumer
    (e.g. the JSONL sink) works over both.  Event emission is off by
    default and the disabled path is a static no-op: call sites guard
    event construction behind [enabled], so a run with telemetry off
    allocates nothing, charges no virtual time and takes no extra
    suspensions.  Counters are always live ([Atomic] increments). *)
module type TELEMETRY = sig
  val enabled : unit -> bool
  (** Whether events are being recorded.  Emitting call sites must check
      this {e before} constructing an event. *)

  val now_ts : unit -> int
  (** Backend timestamp: virtual cycles on the simulator, host nanoseconds
      otherwise. *)

  val emit : Obs.Event.t -> unit
  (** Record an event (no-op when disabled).  Never charges virtual time
      and never suspends. *)

  val counters : Obs.Counters.t
  (** This platform's counter registry. *)

  val counter : string -> Obs.Counters.counter
  (** Find-or-create in [counters]; resolve once, keep the handle. *)

  val enable_memory : ?capacity:int -> unit -> unit
  (** Start recording into per-stream in-memory rings. *)

  val attach_sink : Obs.Sink.t -> unit
  (** Start recording, forwarding every event to the sink. *)

  val disable : unit -> unit
  (** Flush any sink and stop recording.  Counters keep accumulating. *)

  val events : unit -> Obs.Event.t list
  (** Retained in-memory events, merged across streams in timestamp
      order. *)
end

(** Derive the full [TELEMETRY] surface from a backend's
    {!Obs.Telemetry.t} instance. *)
module Telemetry_of (X : sig
  val handle : Obs.Telemetry.t
end) : TELEMETRY = struct
  open X

  let enabled () = Obs.Telemetry.enabled handle
  let now_ts () = Obs.Telemetry.ts handle
  let emit e = Obs.Telemetry.emit handle e
  let counters = Obs.Telemetry.counters handle
  let counter name = Obs.Counters.counter counters name
  let enable_memory ?capacity () = Obs.Telemetry.enable_memory ?capacity handle
  let attach_sink s = Obs.Telemetry.attach_sink handle s
  let disable () = Obs.Telemetry.disable handle
  let events () = Obs.Telemetry.events handle
end

(** A complete MP platform instance. *)
module type PLATFORM = sig
  val name : string

  module Kont : KONT
  module Proc : PROC
  module Lock : LOCK
  module Work : WORK
  module Telemetry : TELEMETRY

  val run : (unit -> 'a) -> 'a
  (** Execute a computation as the root fiber of the root proc; returns when
      the result is available and all other procs have been released.  The
      result is {!outcome}'s, on every backend: an exception that escaped
      any proc's fiber is raised in place of the root's value.
      @raise Deadlock if all procs stop without producing a result. *)

  val stats : unit -> Stats.t
  val reset_stats : unit -> unit
end

(** Every backend's [run] result once its procs have stopped: the first
    exception that escaped any proc's fiber wins over the root's value;
    otherwise the value; otherwise the root never finished, which raises
    [Deadlock] naming [platform]. *)
let outcome ~platform ~escaped result =
  match (escaped, result) with
  | Some e, _ -> raise e
  | None, Some v -> v
  | None, None ->
      raise
        (Deadlock (platform ^ ": all procs released without producing a result"))

(** A platform whose per-proc datum is an [int] (thread-id convention used
    by the paper's thread packages, Figures 1 and 3). *)
module type PLATFORM_INT = PLATFORM with type Proc.proc_datum = int

module Int_datum : DATUM with type t = int = struct
  type t = int

  let initial = 0
end

let host_ns () = int_of_float (Unix.gettimeofday () *. 1e9)
(** Host-clock timestamp for real backends' telemetry (see
    {!TELEMETRY.now_ts}). *)
