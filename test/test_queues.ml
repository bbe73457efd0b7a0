(* Queue disciplines: unit tests per implementation plus qcheck properties
   (order laws, permutation preservation, bounds). *)

open Queues

let check = Alcotest.(check int)
let check_list = Alcotest.(check (list int))
let checkb = Alcotest.(check bool)

let drain deq_opt q =
  let rec go acc =
    match deq_opt q with Some x -> go (x :: acc) | None -> List.rev acc
  in
  go []

(* ---------------- FIFO ---------------- *)

let test_fifo_order () =
  let q = Fifo_queue.create () in
  List.iter (Fifo_queue.enq q) [ 1; 2; 3; 4 ];
  check_list "fifo" [ 1; 2; 3; 4 ] (drain Fifo_queue.deq_opt q)

let test_fifo_empty () =
  let q = Fifo_queue.create () in
  Alcotest.check_raises "empty" Queue_intf.Empty (fun () ->
      ignore (Fifo_queue.deq q))

let test_fifo_interleaved () =
  let q = Fifo_queue.create () in
  Fifo_queue.enq q 1;
  Fifo_queue.enq q 2;
  check "first" 1 (Fifo_queue.deq q);
  Fifo_queue.enq q 3;
  check "second" 2 (Fifo_queue.deq q);
  check "third" 3 (Fifo_queue.deq q);
  check "len" 0 (Fifo_queue.length q)

let test_fifo_length () =
  let q = Fifo_queue.create () in
  checkb "empty" true (Fifo_queue.is_empty q);
  List.iter (Fifo_queue.enq q) [ 1; 2; 3 ];
  check "len" 3 (Fifo_queue.length q);
  ignore (Fifo_queue.deq q);
  check "len after deq" 2 (Fifo_queue.length q)

(* ---------------- LIFO ---------------- *)

let test_lifo_order () =
  let q = Lifo_queue.create () in
  List.iter (Lifo_queue.enq q) [ 1; 2; 3 ];
  check_list "lifo" [ 3; 2; 1 ] (drain Lifo_queue.deq_opt q)

let test_lifo_empty () =
  let q = Lifo_queue.create () in
  Alcotest.check_raises "empty" Queue_intf.Empty (fun () ->
      ignore (Lifo_queue.deq q))

(* ---------------- Priority ---------------- *)

let test_priority_order () =
  let q = Priority_queue.create () in
  Priority_queue.enq q ~priority:1 "low";
  Priority_queue.enq q ~priority:9 "high";
  Priority_queue.enq q ~priority:5 "mid";
  let a = Priority_queue.deq q in
  let b = Priority_queue.deq q in
  let c = Priority_queue.deq q in
  Alcotest.(check (list string)) "by priority" [ "high"; "mid"; "low" ] [ a; b; c ]

let test_priority_fifo_among_equals () =
  let q = Priority_queue.create () in
  List.iter (fun x -> Priority_queue.enq q ~priority:3 x) [ 1; 2; 3; 4 ];
  let out = List.init 4 (fun _ -> Priority_queue.deq q) in
  check_list "insertion order among equals" [ 1; 2; 3; 4 ] out

let test_priority_empty () =
  let q : int Priority_queue.queue = Priority_queue.create () in
  Alcotest.check_raises "empty" Queue_intf.Empty (fun () ->
      ignore (Priority_queue.deq q))

(* ---------------- Deque ---------------- *)

let test_deque_front_back () =
  let d = Deque.create () in
  Deque.push_back d 2;
  Deque.push_back d 3;
  Deque.push_front d 1;
  check "front" 1 (Deque.pop_front d);
  check "back" 3 (Deque.pop_back d);
  check "middle" 2 (Deque.pop_front d);
  checkb "empty" true (Deque.is_empty d)

let test_deque_growth () =
  let d = Deque.create () in
  for i = 1 to 100 do
    Deque.push_front d i
  done;
  check "len" 100 (Deque.length d);
  check "front is newest" 100 (Deque.pop_front d);
  check "back is oldest" 1 (Deque.pop_back d)

(* ---------------- Bounded ---------------- *)

let test_bounded_capacity () =
  let q = Bounded_queue.create ~capacity:2 in
  Bounded_queue.enq q 1;
  Bounded_queue.enq q 2;
  checkb "full" true (Bounded_queue.is_full q);
  Alcotest.check_raises "full raises" Queue_intf.Full (fun () ->
      Bounded_queue.enq q 3);
  checkb "try_enq false" false (Bounded_queue.try_enq q 3);
  check "deq" 1 (Bounded_queue.deq q);
  checkb "try_enq true" true (Bounded_queue.try_enq q 3);
  check "order kept" 2 (Bounded_queue.deq q);
  check "wrapped" 3 (Bounded_queue.deq q)

let test_bounded_invalid () =
  Alcotest.check_raises "zero capacity" (Invalid_argument "Bounded_queue.create")
    (fun () -> ignore (Bounded_queue.create ~capacity:0))

let test_bounded_wraparound () =
  let q = Bounded_queue.create ~capacity:3 in
  for round = 0 to 9 do
    Bounded_queue.enq q round;
    check "ring order" round (Bounded_queue.deq q)
  done

(* ---------------- Multi queue ---------------- *)

module U = Mp.Mp_uniproc.Int ()
module MQ = Multi_queue.Make (U.Lock)

let test_multi_local_lifo () =
  U.run (fun () ->
      let t = MQ.create ~procs:2 () in
      MQ.push t ~proc:0 1;
      MQ.push t ~proc:0 2;
      Alcotest.(check (option int)) "own queue newest first" (Some 2)
        (MQ.take_local t ~proc:0);
      Alcotest.(check (option int)) "then older" (Some 1)
        (MQ.take_local t ~proc:0);
      Alcotest.(check (option int)) "empty" None (MQ.take_local t ~proc:0))

let test_multi_steal_oldest () =
  U.run (fun () ->
      let t = MQ.create ~procs:2 () in
      MQ.push t ~proc:0 1;
      MQ.push t ~proc:0 2;
      Alcotest.(check (option int)) "thief takes oldest" (Some 1)
        (MQ.steal t ~proc:1);
      check "steal counted" 1 (MQ.steals t))

let test_multi_take_falls_back_to_steal () =
  U.run (fun () ->
      let t = MQ.create ~procs:3 () in
      MQ.push t ~proc:2 42;
      Alcotest.(check (option int)) "take steals" (Some 42) (MQ.take t ~proc:0);
      Alcotest.(check (option int)) "now all empty" None (MQ.take t ~proc:0))

let test_multi_push_global_distributes () =
  U.run (fun () ->
      let t = MQ.create ~procs:4 () in
      for i = 1 to 8 do
        MQ.push_global t i
      done;
      check "total" 8 (MQ.total_length t);
      (* every proc got something *)
      for p = 0 to 3 do
        checkb "proc has work" true (MQ.take_local t ~proc:p <> None)
      done)

(* ---------------- qcheck properties ---------------- *)

let prop_fifo_preserves_order =
  QCheck.Test.make ~name:"fifo: drain = input" ~count:200
    QCheck.(list small_int)
    (fun input ->
      let q = Fifo_queue.create () in
      List.iter (Fifo_queue.enq q) input;
      drain Fifo_queue.deq_opt q = input)

let prop_lifo_reverses =
  QCheck.Test.make ~name:"lifo: drain = rev input" ~count:200
    QCheck.(list small_int)
    (fun input ->
      let q = Lifo_queue.create () in
      List.iter (Lifo_queue.enq q) input;
      drain Lifo_queue.deq_opt q = List.rev input)

let prop_priority_sorted =
  QCheck.Test.make ~name:"priority: drain sorted by priority desc" ~count:200
    QCheck.(list (pair small_int small_int))
    (fun input ->
      let q = Priority_queue.create () in
      List.iter (fun (p, v) -> Priority_queue.enq q ~priority:p v) input;
      let rec go acc =
        match Priority_queue.deq_opt q with
        | Some _ as x -> go (x :: acc)
        | None -> List.rev acc
      in
      ignore (go []);
      (* drain priorities must be non-increasing *)
      let q2 = Priority_queue.create () in
      List.iter (fun (p, _) -> Priority_queue.enq q2 ~priority:p p) input;
      let rec drain2 acc =
        match Priority_queue.deq_opt q2 with
        | Some p -> drain2 (p :: acc)
        | None -> List.rev acc
      in
      let ps = drain2 [] in
      ps = List.sort (fun a b -> compare b a) ps)

let prop_deque_double_ended =
  QCheck.Test.make ~name:"deque: pop_front after push_back preserves order"
    ~count:200
    QCheck.(list small_int)
    (fun input ->
      let d = Deque.create () in
      List.iter (Deque.push_back d) input;
      let rec go acc =
        match Deque.pop_front_opt d with
        | Some x -> go (x :: acc)
        | None -> List.rev acc
      in
      go [] = input)

let prop_bounded_never_exceeds =
  QCheck.Test.make ~name:"bounded: length <= capacity always" ~count:200
    QCheck.(pair (int_range 1 8) (list bool))
    (fun (cap, ops) ->
      let q = Bounded_queue.create ~capacity:cap in
      List.for_all
        (fun op ->
          (if op then ignore (Bounded_queue.try_enq q 0)
           else ignore (Bounded_queue.deq_opt q));
          Bounded_queue.length q <= cap)
        ops)

let prop_multi_conserves =
  QCheck.Test.make ~name:"multi: take drains every push exactly once"
    ~count:200
    QCheck.(pair (int_range 1 4) (list (pair (int_range 0 2) small_int)))
    (fun (procs, ops) ->
      U.run (fun () ->
          let t = MQ.create ~procs () in
          List.iteri
            (fun i (kind, p) ->
              let proc = p mod procs in
              match kind with
              | 0 -> MQ.push t ~proc i
              | 1 -> MQ.push_back t ~proc i
              | _ -> MQ.push_global t i)
            ops;
          let n = List.length ops in
          let counted = MQ.total_length t = n && MQ.looks_nonempty t = (n > 0) in
          (* takers rotate over the procs, so takes both pop and steal *)
          let rec go k acc =
            match MQ.take t ~proc:(k mod procs) with
            | Some x -> go (k + 1) (x :: acc)
            | None -> acc
          in
          let out = go 0 [] in
          counted
          && List.sort compare out = List.init n Fun.id
          && not (MQ.looks_nonempty t)))

(* ---------------- SPMC steal-half queue ---------------- *)

let test_spmc_owner_lifo () =
  let q = Spmc_queue.create () in
  List.iter (Spmc_queue.push q) [ 1; 2; 3 ];
  Alcotest.(check (option int)) "newest" (Some 3) (Spmc_queue.pop q);
  Alcotest.(check (option int)) "next" (Some 2) (Spmc_queue.pop q);
  Alcotest.(check (option int)) "oldest last" (Some 1) (Spmc_queue.pop q);
  Alcotest.(check (option int)) "empty" None (Spmc_queue.pop q)

let test_spmc_steal_half () =
  let q = Spmc_queue.create () in
  for i = 1 to 5 do
    Spmc_queue.push q i
  done;
  (* ceil(5/2) = 3 oldest, oldest first *)
  Alcotest.(check (array int))
    "first batch" [| 1; 2; 3 |] (Spmc_queue.steal_half q);
  Alcotest.(check (array int)) "second" [| 4 |] (Spmc_queue.steal_half q);
  Alcotest.(check (option int)) "owner gets last" (Some 5) (Spmc_queue.pop q);
  Alcotest.(check (array int)) "empty steal" [||] (Spmc_queue.steal_half q)

let test_spmc_growth () =
  let q = Spmc_queue.create () in
  for i = 1 to 1000 do
    Spmc_queue.push q i
  done;
  check "size" 1000 (Spmc_queue.size q);
  check "length_hint agrees" 1000 (Spmc_queue.length_hint q);
  checkb "looks nonempty" true (Spmc_queue.looks_nonempty q);
  (* alternate pops and steal-half batches; every value exactly once *)
  let seen = Array.make 1001 false in
  let mark v =
    checkb "no duplicates" false seen.(v);
    seen.(v) <- true
  in
  let rec drain tick =
    if tick mod 2 = 0 then
      match Spmc_queue.pop q with
      | Some v ->
          mark v;
          drain (tick + 1)
      | None -> ()
    else begin
      Array.iter mark (Spmc_queue.steal_half q);
      if Spmc_queue.size q > 0 then drain (tick + 1)
    end
  in
  drain 0;
  check "all drained" 1000
    (Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 seen);
  checkb "looks empty" false (Spmc_queue.looks_nonempty q)

let test_spmc_interleaved_push () =
  (* pushes interleaved with pops keep LIFO order among survivors and
     exercise wraparound of the circular buffer: a thief's batches move
     the window forward, so the owner's later pushes wrap *)
  let q = Spmc_queue.create () in
  let out = ref [] in
  for i = 1 to 100 do
    Spmc_queue.push q i;
    if i mod 3 = 0 then begin
      (match Spmc_queue.pop q with
      | Some v -> check "pop returns the push just made" i v
      | None -> Alcotest.fail "nonempty pop");
      out := i :: !out
    end;
    if i mod 10 = 0 then
      Array.iter (fun v -> out := v :: !out) (Spmc_queue.steal_half q)
  done;
  let rec drain last =
    match Spmc_queue.pop q with
    | Some v ->
        checkb "owner pops newest first" true (v < last);
        out := v :: !out;
        drain v
    | None -> ()
  in
  drain max_int;
  check_list "permutation of pushes"
    (List.init 100 (fun i -> i + 1))
    (List.sort compare !out)

(* The oldest-end push: what the scheduler does with a yielding thread.
   It is the first element a steal returns and the last the owner pops. *)
let test_spmc_push_oldest () =
  let q = Spmc_queue.create () in
  List.iter (Spmc_queue.push q) [ 1; 2; 3 ];
  Spmc_queue.push_oldest q 0;
  Alcotest.(check (array int)) "steal starts at the oldest end" [| 0; 1 |]
    (Spmc_queue.steal_half q);
  Spmc_queue.push_oldest q 9;
  Alcotest.(check (option int)) "owner pops newest" (Some 3) (Spmc_queue.pop q);
  Alcotest.(check (option int)) "then" (Some 2) (Spmc_queue.pop q);
  Alcotest.(check (option int)) "oldest-end push last" (Some 9)
    (Spmc_queue.pop q);
  Alcotest.(check (option int)) "empty" None (Spmc_queue.pop q);
  (* wraps below index 0 and grows from there *)
  for i = 1 to 40 do
    Spmc_queue.push_oldest q i
  done;
  check "size after 40 oldest-end pushes" 40 (Spmc_queue.size q);
  Alcotest.(check (option int)) "the first is now the newest" (Some 1)
    (Spmc_queue.pop q);
  Alcotest.(check (array int)) "a steal takes the latest oldest-end pushes"
    (Array.init 20 (fun i -> 40 - i))
    (Spmc_queue.steal_half q)

(* The owner's take-back: only the newest item comes back, and a miss
   leaves the window as it was. *)
let test_spmc_take_back () =
  let occupied = Atomic.make 0 in
  let q = Spmc_queue.create ~occupied () in
  List.iter (Spmc_queue.push q) [ 1; 2; 3 ];
  checkb "an older item" false (Spmc_queue.take_back q 2);
  checkb "an absent item" false (Spmc_queue.take_back q 9);
  check "a miss leaves the window" 3 (Spmc_queue.size q);
  checkb "the newest item" true (Spmc_queue.take_back q 3);
  check "one fewer" 2 (Spmc_queue.size q);
  Alcotest.(check (option int)) "the next newest pops" (Some 2)
    (Spmc_queue.pop q);
  Alcotest.(check (array int)) "a thief claims the last" [| 1 |]
    (Spmc_queue.steal_half q);
  checkb "an item a thief claimed" false (Spmc_queue.take_back q 1);
  (* its slot still holds it, outside the window *)
  Spmc_queue.push q 4;
  checkb "a claimed item below a newer push" false (Spmc_queue.take_back q 1);
  check "still one item" 1 (Spmc_queue.size q);
  checkb "taking back the last empties the queue" true
    (Spmc_queue.take_back q 4);
  check "occupied count back to 0" 0 (Atomic.get occupied);
  checkb "nothing to take back" false (Spmc_queue.take_back q 4)

(* [occupied] counts non-empty queues: only a fill or an emptying moves it. *)
let test_spmc_occupied_count () =
  let occupied = Atomic.make 0 in
  let a = Spmc_queue.create ~occupied () in
  let b = Spmc_queue.create ~occupied () in
  Spmc_queue.push a 1;
  Spmc_queue.push a 2;
  Spmc_queue.push_oldest b 3;
  check "two non-empty queues" 2 (Atomic.get occupied);
  ignore (Spmc_queue.pop a);
  check "a still non-empty" 2 (Atomic.get occupied);
  ignore (Spmc_queue.steal_half a);
  check "a emptied by a steal" 1 (Atomic.get occupied);
  ignore (Spmc_queue.pop b);
  check "b emptied by a pop" 0 (Atomic.get occupied);
  ignore (Spmc_queue.pop b);
  ignore (Spmc_queue.steal_half a);
  check "empty claims change nothing" 0 (Atomic.get occupied)

(* The steal-half queue under 4 host domains: 1 owner pushing, taking
   back what it just pushed and popping + 3 thief domains consuming whole
   steal-half batches.  Conservation across CAS races and owner-side
   buffer growth: every pushed value consumed exactly once. *)
let prop_spmc_four_domain_race =
  QCheck.Test.make
    ~name:"spmc_queue: 1 owner + 3 steal-half thieves (4 domains) conserve"
    ~count:10
    QCheck.(triple (int_range 500 5_000) (int_range 2 7) (int_range 2 7))
    (fun (n, pop_every, take_back_every) ->
      let q = Spmc_queue.create () in
      let consumed = Atomic.make 0 in
      let sum = Atomic.make 0 in
      let stop = Atomic.make false in
      let thief () =
        while not (Atomic.get stop) do
          let batch = Spmc_queue.steal_half q in
          if Array.length batch = 0 then Domain.cpu_relax ()
          else
            Array.iter
              (fun v ->
                ignore (Atomic.fetch_and_add sum v);
                Atomic.incr consumed)
              batch
        done
      in
      let thieves = List.init 3 (fun _ -> Domain.spawn thief) in
      let consume v =
        ignore (Atomic.fetch_and_add sum v);
        Atomic.incr consumed
      in
      for i = 1 to n do
        Spmc_queue.push q i;
        if i mod take_back_every = 0 && Spmc_queue.take_back q i then
          consume i
        else if i mod pop_every = 0 then
          Option.iter consume (Spmc_queue.pop q)
      done;
      let rec drain () =
        match Spmc_queue.pop q with
        | Some v ->
            consume v;
            drain ()
        | None -> if Atomic.get consumed < n then drain ()
      in
      drain ();
      Atomic.set stop true;
      List.iter Domain.join thieves;
      Atomic.get sum = n * (n + 1) / 2 && Atomic.get consumed = n)

let qsuite name tests = (name, List.map Testkit.to_alcotest tests)

let () =
  Alcotest.run "queues"
    [
      ( "fifo",
        [
          Alcotest.test_case "order" `Quick test_fifo_order;
          Alcotest.test_case "empty raises" `Quick test_fifo_empty;
          Alcotest.test_case "interleaved" `Quick test_fifo_interleaved;
          Alcotest.test_case "length" `Quick test_fifo_length;
        ] );
      ( "lifo",
        [
          Alcotest.test_case "order" `Quick test_lifo_order;
          Alcotest.test_case "empty raises" `Quick test_lifo_empty;
        ] );
      ( "priority",
        [
          Alcotest.test_case "order" `Quick test_priority_order;
          Alcotest.test_case "fifo among equals" `Quick
            test_priority_fifo_among_equals;
          Alcotest.test_case "empty raises" `Quick test_priority_empty;
        ] );
      ( "deque",
        [
          Alcotest.test_case "front/back" `Quick test_deque_front_back;
          Alcotest.test_case "growth" `Quick test_deque_growth;
        ] );
      ( "bounded",
        [
          Alcotest.test_case "capacity" `Quick test_bounded_capacity;
          Alcotest.test_case "invalid" `Quick test_bounded_invalid;
          Alcotest.test_case "wraparound" `Quick test_bounded_wraparound;
        ] );
      ( "multi",
        [
          Alcotest.test_case "local lifo" `Quick test_multi_local_lifo;
          Alcotest.test_case "steal oldest" `Quick test_multi_steal_oldest;
          Alcotest.test_case "take falls back" `Quick
            test_multi_take_falls_back_to_steal;
          Alcotest.test_case "push_global distributes" `Quick
            test_multi_push_global_distributes;
        ] );
      ( "spmc",
        [
          Alcotest.test_case "owner pops newest" `Quick test_spmc_owner_lifo;
          Alcotest.test_case "steal half" `Quick test_spmc_steal_half;
          Alcotest.test_case "growth + drain" `Quick test_spmc_growth;
          Alcotest.test_case "interleaved push" `Quick
            test_spmc_interleaved_push;
          Alcotest.test_case "oldest-end push" `Quick test_spmc_push_oldest;
          Alcotest.test_case "occupied count" `Quick test_spmc_occupied_count;
          Alcotest.test_case "take back" `Quick test_spmc_take_back;
        ] );
      qsuite "properties"
        [
          prop_fifo_preserves_order;
          prop_lifo_reverses;
          prop_priority_sorted;
          prop_deque_double_ended;
          prop_bounded_never_exceeds;
          prop_multi_conserves;
          prop_spmc_four_domain_race;
        ];
    ]
