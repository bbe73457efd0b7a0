(** What the exploration platform ({!Mp_check}) and the DPOR driver
    ({!Dpor}) share: fault-injection configuration, visible-operation
    descriptors and the two ways a run ends without failing ({!Truncated},
    {!Sleep_blocked}).

    Faults model the legal-but-rare behaviours of a real platform that the
    deterministic backends never produce on their own: a [try_lock] that
    fails although the lock is free (lost bus arbitration), a backoff pause
    that lasts far longer than requested (the paper's exponential-backoff
    discussion), and [acquire_proc] hitting the proc limit at the worst
    moment.  All are sound to inject — a client correct under the platform
    contract must tolerate every one of them — so any scenario failure under
    faults is a genuine bug. *)

type faults = {
  try_lock_fail_pct : int;
      (** Probability (percent, 0–100) that a platform [Lock.try_lock]
          spuriously fails even though the lock is free. *)
  backoff_boost : int;
      (** Extra yield points injected at each [Prims.pause_n] — a proc in
          backoff can be held off the lock arbitrarily long. *)
  fail_acquire_at : int option;
      (** Raise [No_More_Procs] at the n-th [acquire_proc] of the run
          (1-based), regardless of pool occupancy. *)
  fault_seed : int64;
      (** Seed for the counter-hash that decides probabilistic injections;
          keep it fixed across replays of the same failure. *)
}

let no_faults =
  {
    try_lock_fail_pct = 0;
    backoff_boost = 0;
    fail_acquire_at = None;
    fault_seed = Sched_seed.default;
  }

(* ---- visible-operation descriptors --------------------------------- *)

(** How a visible operation touches its object.  The vocabulary is what
    dynamic partial order reduction needs and nothing more: two operations
    commute (swapping their order cannot change any later observation)
    unless they touch the same object and at least one writes it. *)
type access =
  | Read  (** observes the object, leaves it unchanged *)
  | Write  (** replaces the object's state *)
  | Rmw  (** read-modify-write (CAS, exchange, lock probe/claim) *)
  | Yield
      (** a spin pause / idle point: touches nothing shared — commutes
          with everything, including other yields *)
  | Global
      (** conservatively ordered against every non-yield operation:
          [Work.poll] (runs an arbitrary scenario hook and brackets
          plain-ref mutation in scenario code), predicate blocks, proc
          start.  The safety net that keeps DPOR sound for effects the
          object vocabulary does not model. *)

(** One visible operation: the trace label, the identity of the object it
    touches (a lock word, an instrumented cell, the proc pool — ids from
    the platform's [fresh_id] counters, replay-stable) and the access
    kind. *)
type opdesc = { label : string; obj : int; access : access }

(* Sentinel object ids, disjoint from [fresh_id]'s non-negative range. *)
let obj_global = -1
let obj_procpool = -2
let obj_local = -3

let desc label obj access = { label; obj; access }

(** [depends a b]: may the order of [a] and [b] (from different procs) be
    observable?  The DPOR dependence relation — an over-approximation is
    sound (explores more), an under-approximation is not. *)
let depends a b =
  match (a.access, b.access) with
  | Yield, _ | _, Yield -> false
  | Global, _ | _, Global -> true
  | _ -> a.obj = b.obj && not (a.access = Read && b.access = Read)

exception Truncated
(** A run exceeded the per-run step budget ([max_steps]).  Truncated runs
    are counted, not treated as failures: they signal livelock or a budget
    set too low, and exploration of that branch is incomplete. *)

exception Sleep_blocked
(** A run was aborted because every enabled choice was in the sleep set:
    the schedule is a commuted permutation of one already explored.
    Counted as a prune, never reported as a failure. *)
