(* The scheduler-policy family.  [t] is the selectable axis threaded from
   [Sim_config]/[--sched] down to [Sched_thread.with_pool]; [Make] builds
   the concrete [Thread_intf.SCHEDULER] instances over a platform.

   All per-proc counters and cursors here are host-side bookkeeping: they
   are never charged, so they do not perturb virtual time, and races on
   them (domains backend) can at worst under-count telemetry. *)

type t = Fifo | Lifo | Distributed | Ws | Micropools of int

let default = Distributed

let to_string = function
  | Fifo -> "fifo"
  | Lifo -> "lifo"
  | Distributed -> "distributed"
  | Ws -> "ws"
  | Micropools k -> Printf.sprintf "micropools:%d" k

let names = [ "fifo"; "lifo"; "distributed"; "ws"; "micropools[:K]" ]

let of_string s =
  let s = String.lowercase_ascii (String.trim s) in
  match s with
  | "fifo" -> Ok Fifo
  | "lifo" -> Ok Lifo
  | "distributed" | "default" -> Ok Distributed
  | "ws" | "steal" -> Ok Ws
  | "micropools" -> Ok (Micropools 2)
  | _ -> (
      let bad () =
        Error
          (Printf.sprintf "unknown scheduler policy %S (expected %s)" s
             (String.concat "|" names))
      in
      match String.index_opt s ':' with
      | Some i when String.sub s 0 i = "micropools" -> (
          let arg = String.sub s (i + 1) (String.length s - i - 1) in
          match int_of_string_opt arg with
          | Some k when k >= 1 -> Ok (Micropools k)
          | _ -> bad ())
      | _ -> bad ())

let of_string_exn s =
  match of_string s with Ok p -> p | Error msg -> invalid_arg msg

module Make (P : Mp.Mp_intf.PLATFORM_INT) = struct
  module MQ = Queues.Multi_queue.Make (P.Lock)

  (* Steal traffic is priced like any other RMW-based synchronization: the
     SPMC queue's cells charge through [Charged_prims], so on the simulator
     a pop or steal probe costs read/CAS cycles plus bus bytes, while on
     real backends the charges are no-ops and only the Atomic ops remain. *)
  module CP = Locks.Charged_prims.Make (P)
  module SQ = Queues.Spmc_queue.Make (CP)

  let clamp_proc ~n proc = if proc < 0 || proc >= n then 0 else proc

  (* Every queue fill issues the platform's idle-wake hint: an idle
     proc's predicate reads the policy's [looks_nonempty], which only a
     fill can turn true. *)
  let wake = P.Work.wake_idle

  (* The historical default: per-proc locked deques, owner front-push/pop,
     rotor spray for new work, rotating-scan steal-one from the back.
     Issues exactly the [Multi_queue] op sequence the pre-policy scheduler
     issued, so the simulator goldens are bit-identical under it. *)
  module Distributed_q : Thread_intf.SCHEDULER = struct
    let name = "distributed"

    type 'a t = 'a MQ.t

    let create ~procs = MQ.create ~wake ~procs ()
    let prepare _ ~procs:_ = ()
    let push_local q ~proc x = MQ.push q ~proc x
    let push_yield = push_local
    let push_new q ~proc:_ x = MQ.push_global q x
    let take_back _ ~proc:_ _ = false
    let take q ~proc = MQ.take q ~proc
    let looks_nonempty q ~proc:_ = MQ.looks_nonempty q
    let total_length = MQ.total_length
    let steals = MQ.steals
    let steal_attempts = MQ.steal_attempts
  end

  (* One shared slot, dequeued at the front; every proc contends on the
     single slot lock.  [E.push] picks the end new and resumed work joins
     at, and with it the discipline. *)
  module Central (E : sig
    val name : string
    val push : 'a MQ.t -> proc:int -> 'a -> unit
  end) : Thread_intf.SCHEDULER = struct
    let name = E.name

    type 'a t = 'a MQ.t

    let create ~procs:_ = MQ.create ~wake ~procs:1 ()
    let prepare _ ~procs:_ = ()
    let push_local q ~proc:_ x = E.push q ~proc:0 x
    let push_yield = push_local
    let push_new = push_local
    let take_back _ ~proc:_ _ = false
    let take q ~proc:_ = MQ.take_local q ~proc:0
    let looks_nonempty q ~proc:_ = MQ.looks_nonempty_local q ~proc:0
    let total_length = MQ.total_length
    let steals _ = 0
    let steal_attempts _ = 0
  end

  (* Enqueue at the back: the classic central FIFO run queue, the
     baseline work stealing is measured against. *)
  module Central_fifo = Central (struct
    let name = "fifo"
    let push = MQ.push_back
  end)

  (* Enqueue at the front too.  This is what the scheduler's old
     [~run_queue:`Central] mode did (slot-0 push_front + pop_front), so
     `Central` maps here and keeps its historical behavior bit-for-bit. *)
  module Central_lifo = Central (struct
    let name = "lifo"
    let push = MQ.push
  end)

  (* Multiprogrammed work stealing (the Manticore workGroup shape): one
     lock-free SPMC steal-half queue per proc, randomized victim selection,
     and batch transfer — a thief keeps the oldest stolen element and
     re-owns the rest of the batch on its own queue.  The owner pops its
     newest item, so fork/join runs depth-first on each proc while thieves
     take the oldest (largest) subtrees, and [take_back] lets a fork_join
     run in place the children no thief took.

     No word shared by procs is written on a fork or a dispatch: steal
     counters live in the thief's own slot, and the idle hint [occupied]
     counts non-empty queues, so only the CAS that fills an empty queue or
     takes its last element writes it.

     Idle procs do not stampede one loaded queue: [thieves] counts the
     procs inside a sweep, and a proc enters one only while that count is
     below [occupied], so each non-empty queue draws one thief at a time.
     Both counts are uncharged host-side bookkeeping: on the simulator a
     proc's check and entry fall in one step, so no other thief passes
     the check in between, as one would during a charged check.  On real
     procs two thieves can pass together; a surplus thief only probes.
     [steal] raises only when its fiber is discarded with the pool, so
     the count needs no exception guard.

     Determinism: victim selection uses a per-proc xorshift stream seeded
     from the proc index only, so a simulator run is a pure function of the
     program — byte-identical across hosts and across [Job_pool] fan-out
     widths.  [Random] and wall-clock seeds are deliberately avoided. *)
  module Work_stealing : Thread_intf.SCHEDULER = struct
    let name = "ws"

    type 'a slot = {
      q : 'a SQ.t;
      mutable rng : int;
      mutable last_victim : int;
      mutable attempts : int;
      mutable hits : int;
    }

    type 'a t = {
      slots : 'a slot array;
      mutable live : int; (* procs acquired into the pool; set by prepare *)
      occupied : int Stdlib.Atomic.t;
      thieves : int Stdlib.Atomic.t; (* procs inside [steal] *)
    }

    let seed_of p =
      (* splitmix-style scramble so neighboring procs do not probe in
         lockstep *)
      let x = (p + 1) * 0x9E3779B9 in
      let x = x lxor (x lsr 16) in
      if x land max_int = 0 then 1 else x land max_int

    let create ~procs =
      let occupied = Mp.Mp_intf.padded (Stdlib.Atomic.make 0) in
      {
        slots =
          Array.init procs (fun p ->
              Mp.Mp_intf.padded
                {
                  q = SQ.create ~occupied ~wake ();
                  rng = seed_of p;
                  last_victim = -1;
                  attempts = 0;
                  hits = 0;
                });
        live = procs;
        occupied;
        thieves = Mp.Mp_intf.padded (Stdlib.Atomic.make 0);
      }

    let prepare t ~procs =
      t.live <- max 1 (min procs (Array.length t.slots))

    let next_rand s =
      let x = s.rng in
      let x = x lxor (x lsl 13) in
      let x = x lxor (x lsr 17) in
      let x = x lxor (x lsl 5) in
      let x = x land max_int in
      let x = if x = 0 then 1 else x in
      s.rng <- x;
      x

    (* the calling proc is its slot's single producer *)
    let own t proc = t.slots.(clamp_proc ~n:(Array.length t.slots) proc).q
    let push_local t ~proc x = SQ.push (own t proc) x
    let push_yield t ~proc x = SQ.push_oldest (own t proc) x
    let push_new = push_local
    let take_back t ~proc x = SQ.take_back (own t proc) x

    (* Peek before probing: a victim whose queue looks empty is skipped
       for free, as [Multi_queue.steal] skips an empty deque.  A probe
       that goes ahead is re-validated by [steal_half]'s charged read and
       CAS, and only such probes count as attempts. *)
    let probe t s victim =
      let vq = t.slots.(victim).q in
      if not (SQ.looks_nonempty vq) then None
      else begin
        s.attempts <- s.attempts + 1;
        match SQ.steal_half vq with
        | [||] -> None
        | batch ->
            s.hits <- s.hits + 1;
            s.last_victim <- victim;
            (* keep the oldest, re-own the rest in the victim's order:
               this proc is its own queue's single producer, so the SPMC
               invariant holds *)
            for i = 1 to Array.length batch - 1 do
              SQ.push s.q batch.(i)
            done;
            Some batch.(0)
      end

    (* A full pass over the [live] victims in rotating order from [i],
       probing only those [pred] admits; each slot is visited exactly
       once, so an unfiltered pass probes the same victims in the same
       order as the historical sweep.  A top-level function, so that an
       idle proc's poll allocates no closures on a flat machine. *)
    let rec sweep t s ~proc ~live pred k i =
      if k = 0 then None
      else
        let victim = i mod live in
        if victim <> proc && pred victim then
          match probe t s victim with
          | Some _ as hit -> hit
          | None -> sweep t s ~proc ~live pred (k - 1) (i + 1)
        else sweep t s ~proc ~live pred (k - 1) (i + 1)

    let steal t ~proc =
      let n = Array.length t.slots in
      (* elastic victim range: only probe procs actually in the pool *)
      let live = if t.live > proc then t.live else n in
      if live <= 1 then None
      else begin
        let s = t.slots.(proc) in
        (* the victim that last yielded work is likely still loaded (one
           proc fans out a phase's tasks): probe it first, then sweep the
           rest from a randomized start so a lone loaded queue is found
           in at most [live - 1] probes *)
        let last = s.last_victim in
        let again =
          if last >= 0 && last < live && last <> proc then probe t s last
          else None
        in
        match again with
        | Some _ as hit -> hit
        | None -> (
            let start = proc + 1 + (next_rand s mod (live - 1)) in
            if P.Proc.nodes () <= 1 then
              sweep t s ~proc ~live (fun _ -> true) live start
            else
              (* node-aware victim order: exhaust same-node victims first —
                 those steals stay off the inter-node link — and only then
                 reach across nodes.  One rand draw either way, so the flat
                 machine's probe sequence (and the simulator goldens over
                 it) is untouched. *)
              let my_node = P.Proc.node_of proc in
              match
                sweep t s ~proc ~live
                  (fun v -> P.Proc.node_of v = my_node)
                  live start
              with
              | Some _ as hit -> hit
              | None ->
                  sweep t s ~proc ~live
                    (fun v -> P.Proc.node_of v <> my_node)
                    live start)
      end

    (* A non-empty queue that no thief is sweeping for. *)
    let unclaimed t =
      Stdlib.Atomic.get t.thieves < Stdlib.Atomic.get t.occupied

    (* An idle proc's poll of its own empty queue costs no charged read
       either: [pop] runs only when the peek sees an item.  A thief
       leaving its sweep frees a place, so it hints if a non-empty queue
       still lacks a thief: that is the write [looks_nonempty] reads. *)
    let take t ~proc =
      let proc = clamp_proc ~n:(Array.length t.slots) proc in
      let q = t.slots.(proc).q in
      match if SQ.looks_nonempty q then SQ.pop q else None with
      | Some _ as v -> v
      | None when unclaimed t ->
          Stdlib.Atomic.incr t.thieves;
          let v = steal t ~proc in
          Stdlib.Atomic.decr t.thieves;
          if unclaimed t then wake ();
          v
      | None -> None

    let looks_nonempty t ~proc =
      SQ.looks_nonempty (own t proc) || unclaimed t

    let total_length t =
      Array.fold_left (fun acc s -> acc + SQ.length_hint s.q) 0 t.slots

    let steals t = Array.fold_left (fun acc s -> acc + s.hits) 0 t.slots

    let steal_attempts t =
      Array.fold_left (fun acc s -> acc + s.attempts) 0 t.slots
  end

  (* Pinned micropools: the procs are partitioned into [k] pools
     (proc mod k), each pool shares one locked deque, and a proc only ever
     consumes from its own pool — work never migrates across pools, procs
     never roam.  New threads are sprayed across pools round-robin; resumed
     continuations stay in the resuming proc's pool. *)
  module Micropools (K : sig
    val pools : int
  end) : Thread_intf.SCHEDULER =
  struct
    let name = Printf.sprintf "micropools:%d" K.pools

    type 'a t = { mq : 'a MQ.t; mutable pools : int; mutable rotor : int }

    let create ~procs =
      let k = max 1 (min K.pools procs) in
      { mq = MQ.create ~wake ~procs:k (); pools = k; rotor = 0 }

    (* Clamping to the acquired-proc count keeps every pool owned by at
       least one proc (pool p is served by procs ≡ p mod pools), so no
       pool can strand work.  Runs before the pool body forks anything,
       so no item can already sit in a slot ≥ the new pool count.  On a
       hierarchical machine pools are node-aligned instead (all procs of a
       node share a pool, keeping each pool's deque node-local), so the
       count is additionally clamped to the number of nodes the acquired
       procs actually span — the spray rotor must never land work in a
       pool no proc consumes. *)
    let prepare t ~procs =
      let cap =
        if P.Proc.nodes () > 1 then min procs (P.Proc.node_of (procs - 1) + 1)
        else procs
      in
      t.pools <- max 1 (min (MQ.procs t.mq) cap)

    let pool t proc =
      let proc = if proc < 0 then 0 else proc in
      if P.Proc.nodes () > 1 then P.Proc.node_of proc mod t.pools
      else proc mod t.pools
    let push_local t ~proc x = MQ.push t.mq ~proc:(pool t proc) x
    let push_yield = push_local

    let push_new t ~proc:_ x =
      let p = t.rotor mod t.pools in
      t.rotor <- t.rotor + 1;
      MQ.push_back t.mq ~proc:p x

    let take_back _ ~proc:_ _ = false
    let take t ~proc = MQ.take_local t.mq ~proc:(pool t proc)

    let looks_nonempty t ~proc =
      MQ.looks_nonempty_local t.mq ~proc:(pool t proc)

    let total_length t = MQ.total_length t.mq
    let steals _ = 0
    let steal_attempts _ = 0
  end

  let instance : t -> (module Thread_intf.SCHEDULER) = function
    | Fifo -> (module Central_fifo)
    | Lifo -> (module Central_lifo)
    | Distributed -> (module Distributed_q)
    | Ws -> (module Work_stealing)
    | Micropools k ->
        (module Micropools (struct
          let pools = k
        end))
end
