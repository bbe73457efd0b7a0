(* Dynamic partial order reduction over recorded runs.

   The platform side (mp_check) records, per decision, the op descriptor
   of the executed operation ({!Check_intf.opdesc}) and the exploration
   bookkeeping the CHESS DFS already kept (choice set, preemption price,
   stutter flag).  This module consumes those recorded runs:

   - {!races} computes a happens-before relation over one run with vector
     clocks and returns the pairs of dependent, unordered operations —
     the only decision points where scheduling a different proc can lead
     to a genuinely new trace (Flanagan-Godefroid DPOR).

   - {!explore} drives exploration from race reversals instead of
     all-alternatives expansion, with sleep sets carried into each run
     (source-set style: if the racing proc is not enabled at the decision
     we fall back to every enabled proc there) and a node table that both
     de-duplicates insertions from different runs reaching the same
     prefix and seeds the sleep set of later siblings with the procs
     already scheduled at that node.

   The frontier is a FIFO queue worked through one forced run at a time
   on the calling domain, so the explored set, the counts and the first
   failure depend only on insertion order. *)

(* One recorded decision of a run. *)
type step = {
  s_proc : int;  (** the proc that executed *)
  s_label : string;  (** trace label of the executed op *)
  s_obj : int;  (** object id the op touched *)
  s_access : Check_intf.access;
  s_choices : int array;  (** enabled (fairness-restricted) choice set *)
  s_stutter : bool;  (** all choices parked at yield points: never branch *)
  s_preempts_before : int;
  s_prev : int;
  s_prev_continuable : bool;
  s_sleep : int;  (** sleep set (bitmask) in force when deciding *)
}

type runner = {
  nprocs : int;
  run_prefix :
    prefix:int array -> split:int -> alt:int -> sleep0:int ->
    exn option * step array;
      (** force [prefix.(0 .. split-1)], then [alt] at decision [split]
          (skipped when [alt < 0]), then the default policy with the
          sleep set engaged from decision [split] seeded with [sleep0] *)
  shrink : exn -> step array -> exn * int list * Obs.Event.t list;
}

type result = {
  r_schedules : int;  (** runs executed to completion (incl. truncated) *)
  r_pruned : int;  (** runs abandoned sleep-blocked *)
  r_truncated : int;
  r_capped : bool;
  r_failure : (exn * int list * Obs.Event.t list) option;
}

(* ---- happens-before races over one run ------------------------------ *)

let vc_leq a b =
  let n = Array.length a in
  let rec go i = i >= n || (a.(i) <= b.(i) && go (i + 1)) in
  go 0

type obj_state = { mutable ow : int; ors : int array }
(* last write step touching the object / last read step per proc *)

(* Dependent, HB-unordered pairs (i, j) with i < j, in increasing [j]
   then increasing [i] — a deterministic insertion order for the driver.

   Vector clocks are built incrementally: step [j] of proc [q] joins its
   program-order predecessor and its conflict predecessors (last write of
   the object; for writes also the last read per proc; the last [Global]
   op; a [Global] op joins a running accumulator of every clock so far).
   Race candidates are exactly those conflict predecessors; a candidate
   [i] is dropped when it reaches [j] through the program-order
   predecessor or through a later conflict edge — reversing such a pair
   is impossible without first reversing the mediating race, which is
   reported on its own. *)
let races ~nprocs (steps : step array) : (int * int) list =
  let n = Array.length steps in
  let vc = Array.make n [||] in
  let cnt = Array.make nprocs 0 in
  let last_po = Array.make nprocs (-1) in
  let last_vis = Array.make nprocs (-1) in
  let last_global = ref (-1) in
  let acc_all = Array.make nprocs 0 in
  let objs : (int, obj_state) Hashtbl.t = Hashtbl.create 64 in
  let obj o =
    match Hashtbl.find_opt objs o with
    | Some s -> s
    | None ->
        let s = { ow = -1; ors = Array.make nprocs (-1) } in
        Hashtbl.add objs o s;
        s
  in
  let out = ref [] in
  for j = 0 to n - 1 do
    let s = steps.(j) in
    let q = s.s_proc in
    let c = Array.make nprocs 0 in
    let join i =
      if i >= 0 then
        let v = vc.(i) in
        for p = 0 to nprocs - 1 do
          if v.(p) > c.(p) then c.(p) <- v.(p)
        done
    in
    join last_po.(q);
    let cands = ref [] in
    let cand i = if i >= 0 then cands := i :: !cands in
    (match s.s_access with
    | Check_intf.Yield -> ()
    | Check_intf.Global ->
        (* ordered against everything so far; candidates are the most
           recent visible op of each other proc *)
        for p = 0 to nprocs - 1 do
          if acc_all.(p) > c.(p) then c.(p) <- acc_all.(p)
        done;
        for p = 0 to nprocs - 1 do
          if p <> q then cand last_vis.(p)
        done
    | Check_intf.Read ->
        join !last_global;
        cand !last_global;
        let o = obj s.s_obj in
        join o.ow;
        cand o.ow
    | Check_intf.Write | Check_intf.Rmw ->
        join !last_global;
        cand !last_global;
        let o = obj s.s_obj in
        join o.ow;
        cand o.ow;
        for p = 0 to nprocs - 1 do
          if p <> q then begin
            join o.ors.(p);
            cand o.ors.(p)
          end
        done);
    c.(q) <- cnt.(q) + 1;
    vc.(j) <- c;
    let cl = List.sort_uniq compare !cands in
    let po = last_po.(q) in
    List.iter
      (fun i ->
        if steps.(i).s_proc <> q then
          let covered =
            (po >= 0 && vc_leq vc.(i) vc.(po))
            || List.exists (fun k -> k > i && vc_leq vc.(i) vc.(k)) cl
          in
          if not covered then out := (i, j) :: !out)
      cl;
    cnt.(q) <- cnt.(q) + 1;
    last_po.(q) <- j;
    for p = 0 to nprocs - 1 do
      if c.(p) > acc_all.(p) then acc_all.(p) <- c.(p)
    done;
    (match s.s_access with
    | Check_intf.Yield -> ()
    | Check_intf.Global ->
        last_global := j;
        last_vis.(q) <- j
    | Check_intf.Read ->
        (obj s.s_obj).ors.(q) <- j;
        last_vis.(q) <- j
    | Check_intf.Write | Check_intf.Rmw ->
        let o = obj s.s_obj in
        o.ow <- j;
        o.ors.(q) <- j;
        last_vis.(q) <- j)
  done;
  List.rev !out

(* ---- the frontier driver -------------------------------------------- *)

(* Node identity = a chained splitmix hash of the forced prefix.  A
   collision would silently merge two distinct prefixes (missing some
   exploration); at 63 bits and millions of nodes the probability is
   ~1e-5 over a whole deep run, and the hash is a pure function of the
   prefix, so a collision would at least be reproducible. *)
let h0 = 0x243F6A8885A308D3L

let prefix_hashes (chosen : int array) =
  let n = Array.length chosen in
  let hs = Array.make (n + 1) h0 in
  for i = 0 to n - 1 do
    hs.(i + 1) <- Sched_seed.hash2 hs.(i) chosen.(i)
  done;
  hs

(* Per-prefix bookkeeping: [alts] is the bitmask of procs scheduled at
   this node by any run or queued insertion (dedupe across runs); its
   first registration also pins [n_sleep], the sleep set in force when
   the node was first reached — later siblings inherit it plus the
   already-scheduled alternatives. *)
type node = { mutable alts : int; n_sleep : int }
type item = { prefix : int array; split : int; alt : int; sleep0 : int }

let explore runner ~bound ~max_schedules ~stop =
  let nprocs = runner.nprocs in
  let nodes : (int64, node) Hashtbl.t = Hashtbl.create 4096 in
  let frontier : item Queue.t = Queue.create () in
  Queue.add { prefix = [||]; split = 0; alt = -1; sleep0 = 0 } frontier;
  let schedules = ref 0 and pruned = ref 0 and truncs = ref 0 in
  let capped = ref false in
  let failure = ref None in
  let run it =
    let err, steps =
      runner.run_prefix ~prefix:it.prefix ~split:it.split ~alt:it.alt
        ~sleep0:it.sleep0
    in
    match err with
    | Some Check_intf.Truncated ->
        (* counted like the plain DFS counts them: the branch is lost to
           the step budget, nothing to expand *)
        incr schedules;
        incr truncs
    | None | Some Check_intf.Sleep_blocked ->
        if Option.is_none err then incr schedules else incr pruned;
        let len = Array.length steps in
        let chosen = Array.map (fun s -> s.s_proc) steps in
        let hs = prefix_hashes chosen in
        (* register this run's nodes (positions expanded here for the
           first time); ancestors registered everything before
           [forced_len], with the same prefix bytes and therefore the
           same hashes.  A sleep-blocked run registers too: its default
           continuation is by construction a commuted duplicate of a
           trace explored from a sibling, so the subtree counts as
           covered. *)
        let forced_len = it.split + if it.alt >= 0 then 1 else 0 in
        for i = forced_len to len - 1 do
          if not (Hashtbl.mem nodes hs.(i)) then
            Hashtbl.add nodes hs.(i)
              { alts = 1 lsl steps.(i).s_proc; n_sleep = steps.(i).s_sleep }
        done;
        let insert_at i a =
          let si = steps.(i) in
          if a <> si.s_proc then
            match Hashtbl.find_opt nodes hs.(i) with
            | None -> ()
            | Some node ->
                let bit = 1 lsl a in
                if node.alts land bit = 0 && node.n_sleep land bit = 0 then begin
                  let cost =
                    si.s_preempts_before
                    + if si.s_prev_continuable && a <> si.s_prev then 1 else 0
                  in
                  if cost <= bound then begin
                    let sleep0 = node.n_sleep lor node.alts in
                    node.alts <- node.alts lor bit;
                    Queue.add
                      { prefix = chosen; split = i; alt = a; sleep0 }
                      frontier
                  end
                end
        in
        List.iter
          (fun (i, j) ->
            let si = steps.(i) in
            if not si.s_stutter then begin
              (* source-set insertion: wake the racing proc at the
                 earlier decision if it was offered there, otherwise
                 every offered proc (some of them lead to it) *)
              let pj = steps.(j).s_proc in
              if Array.exists (fun a -> a = pj) si.s_choices then
                insert_at i pj
              else begin
                Array.iter (fun a -> insert_at i a) si.s_choices;
                (* The racing proc is BLOCKED at [i] — e.g. a lock
                   acquire whose lock the proc executing [i] still
                   holds, so the pair is dependent but never co-enabled
                   and cannot be reversed here (Flanagan-Godefroid's
                   may-be-co-enabled condition).  The reversal point is
                   the last decision that still offered the racing
                   proc: the step in between is what disabled it, so
                   scheduling it there reverses that step instead, and
                   the recursive race analysis of the new run finishes
                   the job.  Without this, acquire-acquire reversals
                   hide behind the unreversible release-acquire edge
                   and whole classes go unexplored. *)
                let i' = ref (i - 1) in
                while
                  !i' >= 0
                  && (steps.(!i').s_stutter
                     || not
                          (Array.exists
                             (fun a -> a = pj)
                             steps.(!i').s_choices))
                do
                  decr i'
                done;
                if !i' >= 0 then insert_at !i' pj
              end
            end)
          (races ~nprocs steps)
    | Some e ->
        incr schedules;
        failure := Some (runner.shrink e steps)
  in
  while
    (not (Queue.is_empty frontier)) && Option.is_none !failure && not !capped
  do
    if stop () || !schedules + !pruned >= max_schedules then capped := true
    else run (Queue.pop frontier)
  done;
  {
    r_schedules = !schedules;
    r_pruned = !pruned;
    r_truncated = !truncs;
    r_capped = !capped;
    r_failure = !failure;
  }
