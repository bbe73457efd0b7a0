(** Pluggable GC cost models for the simulated machine.

    The paper's §6 blames the Sequent speedup ceiling on SML/NJ's
    sequential stop-the-world collector.  The simulator's collector lives
    behind the {!MODEL} signature so the historical collector and its
    counterfactuals can be swept side by side:

    {ul
    {- [stw] — the paper's two-generation stop-the-world collector, moved
       out of [Mp_sim] term for term; every golden is pinned under it.}
    {- [par_stw[:N]] — the §7 "concurrent collection" extension priced as
       N collectors splitting the copy, each paying a sync-barrier
       surcharge; every proc at the barrier collects (capped at N when
       given).}
    {- [minor_pp] — OCaml-5-style per-proc minor heaps: the region is
       divided among the procs, a full minor region is collected by its
       owner alone (no other proc stops), and survivors promote into a
       shared old region whose budget triggers a stop-the-world major.}} *)

type t = Stw | Par_stw of int  (** 0 = all barrier procs collect *) | Minor_pp

val default : t
(** [Stw] — the golden-pinned historical collector. *)

val to_string : t -> string
val names : string list

val of_string : string -> (t, string) result
(** Parse ["stw"], ["par_stw"], ["par_stw:<n>"] or ["minor_pp"]
    (case-insensitive). *)

val of_string_exn : string -> t

(** Cost constants, extracted from [Sim_config] by the simulator (this
    module does not depend on the config; the config references {!t}). *)
type params = {
  procs : int;
  region_words : int;  (** shared region / old-region promotion budget *)
  survival : float;  (** fraction of a collected region that is live *)
  cycles_per_word : float;  (** copy cost per surviving word *)
  fixed_cycles : int;  (** stop-the-world synchronization + redivision *)
  minor_fixed_cycles : int;  (** per-minor-collection fixed cost *)
  barrier_cycles : int;  (** per-collector sync surcharge ([par_stw]) *)
}

type kind = Obs.Event.gc_kind = Minor | Major | Par

type episode = { kind : kind; duration : int; region_words : int }
(** One priced stop-the-world collection; the scheduler releases the
    barrier at [start + duration]. *)

module type MODEL = sig
  val model : t

  val pending : bool ref
  (** A stop-the-world episode has been triggered; every proc parks at its
      next clean point.  A ref (not a function) so the run-ahead gates pay
      one deref on the hot path. *)

  val region_used : unit -> int
  (** Words the next stop-the-world episode would collect. *)

  val admit : proc:int -> words:int -> bool
  (** May [proc] allocate [words] inline?  Strict: an admitted slice
      cannot trigger a collection. *)

  val alloc : proc:int -> words:int -> int * int
  (** Account a slice; may trigger, though never for an admitted one (so
      an admitted slice returns [(0, 0)]).  Returns [(pause, collected)]:
      cycles the allocating proc pays alone for an independent minor
      collection and the words it scanned, or [(0, 0)]. *)

  val episode : waiters:int -> episode
  (** Price the pending collection given the procs parked at the
      barrier. *)

  val finish_episode : episode -> unit
  (** Barrier release: reset the collected region, clear [pending]. *)

  val minor_collections : unit -> int
  val major_collections : unit -> int

  val pause_cycles : unit -> int
  (** Stop-the-world durations plus per-proc minor pauses. *)

  val reset : unit -> unit
end

val instance : t -> params -> (module MODEL)
(** A fresh model instance with zeroed accounting. *)
