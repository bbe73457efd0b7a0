let names = [ "allpairs"; "mst"; "abisort"; "simple"; "mm"; "seq"; "fib" ]

module Make (P : Mp.Mp_intf.PLATFORM_INT) = struct
  module Sched = Mpthreads.Sched_thread.Make (P)

  let step = P.Work.step

  (* ------------------------------------------------------------------ *)
  (* mm: 100x100 integer matrix multiply, parallel over rows.            *)
  (* Tight integer loop: low allocation ratio.                           *)
  (* ------------------------------------------------------------------ *)

  let mm ~procs ?sched ?(n = 100) ?(seed = 42) () =
    P.run (fun () ->
        Sched.with_pool ~procs ?sched (fun () ->
            let a = Matrix.random ~n ~seed in
            let b = Matrix.random ~n ~seed:(seed + 1) in
            step ~instrs:(2 * n * n) ~alloc_words:(2 * n * n) ();
            let dst = Array.make_matrix n n 0 in
            let row_instrs = n * n * 8 in
            Sched.par_iter ~chunks:(min n (4 * procs)) n (fun i ->
                Matrix.multiply_row a b ~dst i;
                step ~instrs:row_instrs ~alloc_words:(row_instrs / 8) ());
            Matrix.checksum dst))

  (* ------------------------------------------------------------------ *)
  (* allpairs: Floyd's algorithm, 75 nodes; one barrier per k-phase.     *)
  (* ------------------------------------------------------------------ *)

  let allpairs ~procs ?sched ?(n = 75) ?(seed = 42) () =
    P.run (fun () ->
        Sched.with_pool ~procs ?sched (fun () ->
            let g = Graph.random ~n ~seed () in
            step ~instrs:(n * n) ~alloc_words:(n * n) ();
            let d = Array.map Array.copy g.Graph.dist in
            let row_instrs = n * 8 in
            for k = 0 to n - 1 do
              Sched.par_iter ~chunks:procs n (fun i ->
                  let dik = d.(i).(k) in
                  if dik < Graph.inf then begin
                    let dk = d.(k) and di = d.(i) in
                    for j = 0 to n - 1 do
                      let via = dik + dk.(j) in
                      if via < di.(j) then di.(j) <- via
                    done
                  end;
                  step ~instrs:row_instrs ~alloc_words:(row_instrs / 2) ())
            done;
            Graph.checksum d))

  (* ------------------------------------------------------------------ *)
  (* mst: Prim on 200 points; per step a parallel min-reduction and a    *)
  (* parallel relaxation, combined under a result lock.                  *)
  (* ------------------------------------------------------------------ *)

  (* Split [0, n) into [chunks] contiguous tasks over [f lo hi]. *)
  let chunk_tasks chunks n f =
    let size = (n + chunks - 1) / chunks in
    let rec build lo acc =
      if lo >= n then List.rev acc
      else
        let hi = min n (lo + size) in
        build hi ((fun () -> f lo hi) :: acc)
    in
    build 0 []

  let mst ~procs ?sched ?(n = 200) ?(seed = 42) () =
    P.run (fun () ->
        Sched.with_pool ~procs ?sched (fun () ->
            let p = Euclid.random_points ~n ~seed in
            step ~instrs:(n * 10) ~alloc_words:(n * 4) ();
            let in_tree = Array.make n false in
            let best = Array.make n max_int in
            in_tree.(0) <- true;
            for j = 1 to n - 1 do
              best.(j) <- Euclid.weight p 0 j
            done;
            step ~instrs:(n * 30) ~alloc_words:(n * 6) ();
            let total = ref 0 in
            let lock = P.Lock.mutex_lock () in
            let chunks = max 1 (min procs ((n + 24) / 25)) in
            let last = ref 0 in
            (* One fork_join per tree-growing step: each chunk relaxes its
               nodes against the node added last step and computes a local
               argmin, combined under one lock per chunk. *)
            for _ = 1 to n - 1 do
              let pick = ref (-1) in
              let v0 = !last in
              Sched.fork_join
                (chunk_tasks chunks n (fun lo hi ->
                     let local = ref (-1) in
                     for j = lo to hi - 1 do
                       if not in_tree.(j) then begin
                         let w = Euclid.weight p v0 j in
                         if w < best.(j) then best.(j) <- w;
                         if !local < 0 || best.(j) < best.(!local) then
                           local := j
                       end
                     done;
                     step ~instrs:((hi - lo) * 60)
                       ~alloc_words:((hi - lo) * 7)
                       ();
                     if !local >= 0 then begin
                       P.Lock.lock lock;
                       if !pick < 0 || best.(!local) < best.(!pick) then
                         pick := !local;
                       P.Lock.unlock lock
                     end));
              let v = !pick in
              in_tree.(v) <- true;
              total := !total + best.(v);
              last := v
            done;
            !total))

  (* ------------------------------------------------------------------ *)
  (* abisort: adaptive bitonic sort of 2^12 integers.  Heavy allocation  *)
  (* (the original is built of cons cells / bitonic trees).              *)
  (* ------------------------------------------------------------------ *)

  let cmp_instrs = 12
  let abisort_grain = 256
  let charge_sort n = (* sequential leaf: n log^2 n comparators *)
    let rec log2 n = if n <= 1 then 0 else 1 + log2 (n / 2) in
    let l = log2 n in
    step ~instrs:(n * l * (l + 1) / 2 * cmp_instrs)
      ~alloc_words:(n * l * (l + 1) / 2 * cmp_instrs / 3)
      ()

  let charge_block instrs = step ~instrs ~alloc_words:(instrs / 3) ()

  let abisort ~procs ?sched ?(size = 4096) ?(seed = 42) () =
    P.run (fun () ->
        Sched.with_pool ~procs ?sched (fun () ->
            let rng = Random.State.make [| seed; size |] in
            let a = Array.init size (fun _ -> Random.State.int rng 1_000_000) in
            step ~instrs:(size * 4) ~alloc_words:size ();
            let rec pmerge ~up lo n =
              if n <= abisort_grain then begin
                charge_block (n * cmp_instrs * 2);
                Bitonic.merge ~up a lo n
              end
              else begin
                charge_block (n / 2 * cmp_instrs);
                let swapped = Bitonic.half_clean ~up a lo n in
                let continue_ =
                  swapped
                  ||
                  begin
                    charge_block (n * 4);
                    not (Bitonic.ordered ~up a lo n)
                  end
                in
                if continue_ then begin
                  let h = n / 2 in
                  Sched.fork_join
                    [
                      (fun () -> pmerge ~up lo h);
                      (fun () -> pmerge ~up (lo + h) h);
                    ]
                end
              end
            in
            let rec psort ~up lo n =
              if n <= abisort_grain then begin
                charge_sort n;
                let sub = Array.sub a lo n in
                let cmp = if up then compare else fun x y -> compare y x in
                Array.sort cmp sub;
                Array.blit sub 0 a lo n
              end
              else begin
                let h = n / 2 in
                Sched.fork_join
                  [
                    (fun () -> psort ~up:true lo h);
                    (fun () -> psort ~up:false (lo + h) h);
                  ];
                pmerge ~up lo n
              end
            in
            psort ~up:true 0 size;
            Array.fold_left (fun acc x -> (acc * 31) + x) 7 a))

  (* ------------------------------------------------------------------ *)
  (* simple: SIMPLE hydrodynamics; eight row-parallel phases separated   *)
  (* by barriers, a serial boundary pass, and a lock-reduced CFL bound.  *)
  (* Boxed floats: high allocation ratio.                                *)
  (* ------------------------------------------------------------------ *)

  let simple ~procs ?sched ?(n = 100) ?(steps = 1) ?(seed = 42) () =
    P.run (fun () ->
        Sched.with_pool ~procs ?sched (fun () ->
            let t = Hydro.create ~n ~seed in
            step ~instrs:(n * n * 4) ~alloc_words:(n * n * 2) ();
            let row_instrs = Hydro.row_flops t in
            (* The SIMPLE port decomposes each sweep into a bounded number of
               bands, so available parallelism is capped and processors go
               idle at high proc counts — the paper's diagnosis of simple's
               poor speedup ("idle rates above 50% for 10 processors"). *)
            let chunks = min procs 4 in
            let phase f =
              Sched.par_iter ~chunks n (fun i ->
                  f t ~lo:i ~hi:(i + 1);
                  step ~instrs:row_instrs ~alloc_words:(row_instrs / 3) ())
            in
            for _ = 1 to steps do
              phase Hydro.phase_eos;
              phase Hydro.phase_viscosity;
              (* global CFL bound: parallel per-row scans min-combined
                 under a shared lock (the paper's "data locks") *)
              let dt = ref infinity in
              let dt_lock = P.Lock.mutex_lock () in
              Sched.par_iter ~chunks n (fun i ->
                  let d = Hydro.cfl_row t i in
                  step ~instrs:row_instrs ~alloc_words:(row_instrs / 3) ();
                  P.Lock.lock dt_lock;
                  if d < !dt then dt := d;
                  P.Lock.unlock dt_lock);
              let dt = !dt in
              phase (fun t ~lo ~hi -> Hydro.phase_velocity t ~dt ~lo ~hi);
              phase (fun t ~lo ~hi -> Hydro.phase_energy t ~dt ~lo ~hi);
              phase (fun t ~lo ~hi -> Hydro.phase_density t ~dt ~lo ~hi);
              phase Hydro.phase_heat;
              phase Hydro.phase_heat_commit;
              (* serial boundary conditions *)
              Hydro.boundary t;
              step ~instrs:(n * 16) ~alloc_words:(n * 6) ()
            done;
            Hydro.checksum t))

  (* ------------------------------------------------------------------ *)
  (* seq: p independent copies of a small allocation-heavy application.  *)
  (* ------------------------------------------------------------------ *)

  let seq ~procs ?copies ?sched ?(work = 1_000_000) () =
    let copies = match copies with Some c -> c | None -> procs in
    P.run (fun () ->
        Sched.with_pool ~procs ?sched (fun () ->
            Sched.par_iter ~chunks:copies copies (fun _copy ->
                (* one independent "application": a loop of compute+alloc *)
                let block = 10_000 in
                let blocks = work / block in
                let acc = ref 0 in
                for i = 1 to blocks do
                  (* real work so the kernel is not empty *)
                  for j = 1 to 100 do
                    acc := !acc + (i * j)
                  done;
                  step ~instrs:block ~alloc_words:(block / 14) ()
                done;
                ignore !acc);
            copies))

  (* ------------------------------------------------------------------ *)
  (* fib: unbalanced divide-and-conquer, the classic work-stealing      *)
  (* stress test.  Subtree sizes differ exponentially (the k-1 child is *)
  (* ~1.6x the k-2 child at every node), forks are fine-grained, and a  *)
  (* sequential cutoff bounds task granularity — so dispatch throughput *)
  (* dominates and a central run queue serializes on its lock.         *)
  (* ------------------------------------------------------------------ *)

  let fib ~procs ?sched ?(n = 24) ?(cutoff = 8) () =
    P.run (fun () ->
        Sched.with_pool ~procs ?sched (fun () ->
            let rec seq_fib k =
              if k < 2 then k else seq_fib (k - 1) + seq_fib (k - 2)
            in
            let rec node k =
              if k < cutoff then begin
                (* sequential leaf; charge proportional to subtree size *)
                let v = seq_fib k in
                step ~instrs:(40 * (v + 1)) ~alloc_words:(v + 1) ();
                v
              end
              else begin
                step ~instrs:120 ~alloc_words:24 ();
                let a = ref 0 and b = ref 0 in
                Sched.fork_join
                  [
                    (fun () -> a := node (k - 1)); (fun () -> b := node (k - 2));
                  ];
                !a + !b
              end
            in
            node n))

  let run_named ?sched name ~procs =
    match name with
    | "allpairs" -> allpairs ~procs ?sched ()
    | "mst" -> mst ~procs ?sched ()
    | "abisort" -> abisort ~procs ?sched ()
    | "simple" -> simple ~procs ?sched ()
    | "mm" -> mm ~procs ?sched ()
    | "seq" -> seq ~procs ?sched ()
    | "fib" -> fib ~procs ?sched ()
    | other -> invalid_arg ("Bench_suite.run_named: unknown benchmark " ^ other)
end
