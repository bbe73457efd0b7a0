(* Pluggable GC cost models for the simulated machine.

   The paper's §6 attributes the Sequent speedup ceiling to SML/NJ's
   sequential stop-the-world collector; this module lifts that collector
   out of [Mp_sim] behind a small state-machine signature so the
   counterfactuals — an N-collector parallel STW and OCaml-5-style
   per-proc minor heaps — can be swept side by side, bit-reproducibly.

   A model instance owns all region accounting.  The simulator consults it
   at exactly the positions the inlined code used to touch its refs:

   - [admit] gates the run-ahead fast path (may this slice be charged
     inline, without a suspension?).  For the global-region models this is
     the old [region_used + words < gc_region_words] test.
   - [alloc] applies every slice's words and may trigger (never for an
     admitted slice: admission is strict).  It returns any pause the
     allocating proc pays {e alone} — zero for the stop-the-world models,
     a minor-collection pause under [minor_pp] — so independent minor
     collections never stop other procs.
   - [pending] is the stop-the-world trigger flag; the scheduler parks
     every proc at its next clean point while it is set, then asks
     [episode] for the collection's kind/duration and releases the barrier
     with [finish_episode].

   The [Stw] instance is the old code moved, term for term: same strict
   admission, same [>=] trigger, same [fixed + cycles_per_word * copied]
   duration.  Every golden is pinned under it. *)

type t = Stw | Par_stw of int | Minor_pp

let default = Stw

let to_string = function
  | Stw -> "stw"
  | Par_stw 0 -> "par_stw"
  | Par_stw n -> Printf.sprintf "par_stw:%d" n
  | Minor_pp -> "minor_pp"

let names = [ "stw"; "par_stw[:N]"; "minor_pp" ]

let of_string s =
  let s = String.lowercase_ascii (String.trim s) in
  match s with
  | "stw" -> Ok Stw
  | "par_stw" -> Ok (Par_stw 0)
  | "minor_pp" -> Ok Minor_pp
  | _ -> (
      let bad () =
        Error
          (Printf.sprintf "unknown GC model %S (expected %s)" s
             (String.concat "|" names))
      in
      match String.index_opt s ':' with
      | Some i when String.sub s 0 i = "par_stw" -> (
          let arg = String.sub s (i + 1) (String.length s - i - 1) in
          match int_of_string_opt arg with
          | Some n when n >= 1 -> Ok (Par_stw n)
          | _ -> bad ())
      | _ -> bad ())

let of_string_exn s =
  match of_string s with Ok m -> m | Error msg -> invalid_arg msg

(* Cost constants, extracted from [Sim_config] by the simulator so this
   module stays independent of it (the config references [t], not the
   other way round). *)
type params = {
  procs : int;
  region_words : int;
  survival : float;
  cycles_per_word : float;
  fixed_cycles : int;
  minor_fixed_cycles : int;
  barrier_cycles : int;
}

type kind = Obs.Event.gc_kind = Minor | Major | Par

(* One stop-the-world collection, as priced by [episode]: the scheduler
   turns it into a barrier release at [start + duration]. *)
type episode = { kind : kind; duration : int; region_words : int }

module type MODEL = sig
  val model : t

  val pending : bool ref
  (** A stop-the-world episode has been triggered; every proc must park at
      its next clean point.  The run-ahead gates deref this on the hot
      path, which is why it is a ref and not a function. *)

  val region_used : unit -> int
  (** Words the next stop-the-world episode would collect (the shared
      region for [Stw]/[Par_stw], promoted words for [Minor_pp]). *)

  val admit : proc:int -> words:int -> bool
  (** May [proc] allocate [words] inline?  Strict: admission guarantees
      the slice cannot trigger a collection. *)

  val alloc : proc:int -> words:int -> int * int
  (** Account a slice; may trigger unless it was admitted.  Returns
      [(pause, collected)]: cycles the allocating proc pays alone for an
      independent minor collection, and the words that collection scanned
      ([0, 0] when none ran). *)

  val episode : waiters:int -> episode
  (** Price the pending stop-the-world collection given the number of
      procs parked at the barrier. *)

  val finish_episode : episode -> unit
  (** Barrier release: reset the collected region, clear [pending]. *)

  val minor_collections : unit -> int
  val major_collections : unit -> int

  val pause_cycles : unit -> int
  (** Total pause cycles: stop-the-world durations plus per-proc minor
      pauses. *)

  val reset : unit -> unit
end

(* The paper's collector (§5): one shared region, stop-the-world, one proc
   collects; [Par_stw] models the §7 concurrent-collector extension.  This
   is the pre-refactor [Mp_sim] code verbatim. *)
let stw_instance sel (p : params) : (module MODEL) =
  (module struct
    let model = sel
    let pending = ref false
    let region = ref 0
    let majors = ref 0
    let pauses = ref 0
    let region_used () = !region
    let admit ~proc:_ ~words = !region + words < p.region_words

    let alloc ~proc:_ ~words =
      region := !region + words;
      if !region >= p.region_words then pending := true;
      (0, 0)

    let episode ~waiters =
      let copied = int_of_float (p.survival *. float_of_int !region) in
      let kind, divisor, barrier =
        match sel with
        | Par_stw cap ->
            (* Every proc parked at the barrier becomes a collector (capped
               at [cap] when positive); each extra collector pays a sync
               barrier surcharge, so the copy split has diminishing
               returns. *)
            let n = max 1 waiters in
            let n = if cap > 0 then min cap n else n in
            (Par, float_of_int n, p.barrier_cycles * n)
        | Stw | Minor_pp -> (Major, 1.0, 0)
      in
      let duration =
        p.fixed_cycles + barrier
        + int_of_float (p.cycles_per_word *. float_of_int copied /. divisor)
      in
      { kind; duration; region_words = !region }

    let finish_episode (e : episode) =
      incr majors;
      pauses := !pauses + e.duration;
      region := 0;
      pending := false

    let minor_collections () = 0
    let major_collections () = !majors
    let pause_cycles () = !pauses

    let reset () =
      pending := false;
      region := 0;
      majors := 0;
      pauses := 0
  end)

(* Per-proc minor heaps: the shared region is divided evenly among the
   procs; a proc whose minor region fills collects it immediately and
   alone (a pause charged only to that proc), promoting the survivors into
   a shared old region.  A stop-the-world major runs only when promoted
   words reach the old-region budget ([region_words]). *)
let minor_pp_instance (p : params) : (module MODEL) =
  (module struct
    let model = Minor_pp
    let pending = ref false
    let nprocs = max 1 p.procs
    let minor_region = max 1 (p.region_words / nprocs)
    let minor_used = Array.make nprocs 0
    let promoted = ref 0
    let minors = ref 0
    let majors = ref 0
    let pauses = ref 0
    let region_used () = !promoted
    let admit ~proc ~words = minor_used.(proc) + words < minor_region

    let alloc ~proc ~words =
      minor_used.(proc) <- minor_used.(proc) + words;
      if minor_used.(proc) >= minor_region then begin
        let used = minor_used.(proc) in
        let survived = int_of_float (p.survival *. float_of_int used) in
        let pause =
          p.minor_fixed_cycles
          + int_of_float (p.cycles_per_word *. float_of_int survived)
        in
        minor_used.(proc) <- 0;
        promoted := !promoted + survived;
        incr minors;
        pauses := !pauses + pause;
        if !promoted >= p.region_words then pending := true;
        (pause, used)
      end
      else (0, 0)

    let episode ~waiters:_ =
      let copied = int_of_float (p.survival *. float_of_int !promoted) in
      let duration =
        p.fixed_cycles
        + int_of_float (p.cycles_per_word *. float_of_int copied)
      in
      { kind = Major; duration; region_words = !promoted }

    let finish_episode (e : episode) =
      incr majors;
      pauses := !pauses + e.duration;
      promoted := 0;
      pending := false

    let minor_collections () = !minors
    let major_collections () = !majors
    let pause_cycles () = !pauses

    let reset () =
      pending := false;
      Array.fill minor_used 0 nprocs 0;
      promoted := 0;
      minors := 0;
      majors := 0;
      pauses := 0
  end)

let instance sel (p : params) : (module MODEL) =
  match sel with
  | Stw | Par_stw _ -> stw_instance sel p
  | Minor_pp -> minor_pp_instance p
