(* Engine semantics: callcc/throw per the paper's usage, one-shotness,
   exception routing, suspend, and the continuation utilities. *)

open Mp

module U = Mp_uniproc.Int ()

let check = Alcotest.(check int)
let checks = Alcotest.(check string)
let checkb = Alcotest.(check bool)

let test_run_returns () = check "value" 42 (U.run (fun () -> 42))

let test_run_raises () =
  Alcotest.check_raises "exn propagates" (Failure "oops") (fun () ->
      ignore (U.run (fun () -> failwith "oops")))

let test_run_sequential_reuse () =
  check "first" 1 (U.run (fun () -> 1));
  check "second" 2 (U.run (fun () -> 2))

let test_callcc_normal_return () =
  check "body value" 7 (U.run (fun () -> Engine.callcc (fun _ -> 7)))

let test_callcc_throw () =
  check "thrown value" 11
    (U.run (fun () -> 1 + Engine.callcc (fun k -> Engine.throw k 10)))

let test_callcc_throw_in_middle () =
  (* code after the throw in the body is abandoned *)
  let side = ref 0 in
  let v =
    U.run (fun () ->
        Engine.callcc (fun k ->
            Engine.throw k 5 |> ignore;
            side := 1;
            99))
  in
  check "value" 5 v;
  check "abandoned" 0 !side

let test_callcc_nested () =
  let v =
    U.run (fun () ->
        Engine.callcc (fun outer ->
            let inner_v = Engine.callcc (fun k -> Engine.throw k 3) in
            Engine.throw outer (inner_v * 10)))
  in
  check "nested" 30 v

let test_callcc_body_raises () =
  checks "handler sees it" "boom"
    (U.run (fun () ->
         try Engine.callcc (fun _ -> failwith "boom") with Failure m -> m))

let test_throw_exn () =
  checks "delivered at capture point" "sent"
    (U.run (fun () ->
         try Engine.callcc (fun k -> Engine.throw_exn k (Failure "sent"))
         with Failure m -> m))

let test_one_shot_enforced () =
  checkb "second resume rejected" true
    (U.run (fun () ->
         let saved = ref None in
         let first = ref true in
         let () =
           Engine.callcc (fun k ->
               saved := Some k;
               Engine.throw k ())
         in
         if !first then begin
           first := false;
           match !saved with
           | Some k -> (
               match Engine.resume k () with
               | exception Engine.Already_resumed -> true
               | _ -> false)
           | None -> false
         end
         else false))

(* [throw] ends the fiber it leaves by unwinding it with [Abandoned]; a
   fiber that does anything but end makes [run] raise the engine's
   failure. *)
let test_abandoned_fiber_must_end () =
  let fails what body =
    Alcotest.match_raises what
      (function Engine.Abandon_failed _ -> true | _ -> false)
      (fun () -> ignore (U.run (fun () -> Engine.callcc body)))
  in
  fails "swallows and returns" (fun k ->
      (try Engine.throw k 1 with _ -> ());
      2);
  fails "raises something else" (fun k ->
      try Engine.throw k 1 with Engine.Abandoned -> failwith "other");
  fails "suspends while unwinding" (fun k ->
      try Engine.throw k 1
      with Engine.Abandoned -> Engine.suspend (fun c -> Engine.Resume (c, 3)));
  check "engine usable afterwards" 5
    (U.run (fun () -> Engine.callcc (fun k -> Engine.throw k 5)))

let test_typed_continuations () =
  (* continuations carry non-trivial value types *)
  let v =
    U.run (fun () ->
        Engine.callcc (fun (k : (int * string) Engine.cont) ->
            Engine.throw k (1, "one")))
  in
  Alcotest.(check (pair int string)) "pair" (1, "one") v

let test_suspend_resume_action () =
  (* suspend hands the continuation to proc-loop context; returning
     Resume re-enters immediately *)
  let v = U.run (fun () -> Engine.suspend (fun c -> Engine.Resume (c, 9))) in
  check "resumed" 9 v

let test_suspend_raise_action () =
  checks "raise action" "later"
    (U.run (fun () ->
         try Engine.suspend (fun c -> Engine.Raise (c, Failure "later"))
         with Failure m -> m))

let test_cont_of_thunk_runs_later () =
  let ran = ref false in
  U.run (fun () ->
      let c =
        Kont_util.cont_of_thunk
          ~on_return:(fun () -> U.Proc.release_proc ())
          (fun () -> ran := true)
      in
      ignore c);
  checkb "thunk never started" false !ran

let test_cont_of_thunk_runs_when_thrown () =
  let ran = ref false in
  U.run (fun () ->
      Engine.callcc (fun exit_ ->
          let c =
            Kont_util.cont_of_thunk
              ~on_return:(fun () -> Engine.throw exit_ ())
              (fun () -> ran := true)
          in
          Engine.throw c ()));
  checkb "thunk ran when thrown to" true !ran

let test_unit_cont_delivers_value () =
  let got = ref 0 in
  U.run (fun () ->
      Engine.callcc (fun (exit_ : unit Engine.cont) ->
          let v =
            Engine.callcc (fun (k : int Engine.cont) ->
                let w = Kont_util.unit_cont_of k 77 in
                Engine.throw w ())
          in
          got := v;
          Engine.throw exit_ ()));
  check "value delivered" 77 !got

let test_deep_throw_chain () =
  (* ten thousand sequential callcc/throw pairs must not grow the stack:
     the trampoline flattens every switch *)
  let v =
    U.run (fun () ->
        let acc = ref 0 in
        for _ = 1 to 10_000 do
          acc := !acc + Engine.callcc (fun k -> Engine.throw k 1)
        done;
        !acc)
  in
  check "no stack growth over 10k switches" 10_000 v

let test_many_live_continuations () =
  (* thousands of captured-but-unresumed continuations coexist (the paper's
     "hundreds or even thousands of threads") *)
  let v =
    U.run (fun () ->
        let parked = ref [] in
        let count = 2_000 in
        for i = 1 to count do
          (* capture a continuation that, when thrown 0, contributes i *)
          let rec capture () =
            Engine.callcc (fun (k : int Engine.cont) ->
                parked := (i, k) :: !parked;
                0)
            |> fun x -> if x = -1 then capture () else x
          in
          ignore (capture ())
        done;
        List.length !parked)
  in
  check "2000 live continuations" 2_000 v

let () =
  Alcotest.run "engine"
    [
      ( "run",
        [
          Alcotest.test_case "returns value" `Quick test_run_returns;
          Alcotest.test_case "raises" `Quick test_run_raises;
          Alcotest.test_case "sequential reuse" `Quick test_run_sequential_reuse;
        ] );
      ( "callcc",
        [
          Alcotest.test_case "normal return" `Quick test_callcc_normal_return;
          Alcotest.test_case "throw" `Quick test_callcc_throw;
          Alcotest.test_case "abandons after throw" `Quick
            test_callcc_throw_in_middle;
          Alcotest.test_case "nested" `Quick test_callcc_nested;
          Alcotest.test_case "body raises" `Quick test_callcc_body_raises;
          Alcotest.test_case "throw_exn" `Quick test_throw_exn;
          Alcotest.test_case "one-shot enforced" `Quick test_one_shot_enforced;
          Alcotest.test_case "typed continuations" `Quick
            test_typed_continuations;
          Alcotest.test_case "abandoned fiber must end" `Quick
            test_abandoned_fiber_must_end;
        ] );
      ( "suspend",
        [
          Alcotest.test_case "resume action" `Quick test_suspend_resume_action;
          Alcotest.test_case "raise action" `Quick test_suspend_raise_action;
        ] );
      ( "stress",
        [
          Alcotest.test_case "10k throw chain" `Quick test_deep_throw_chain;
          Alcotest.test_case "2000 live continuations" `Quick
            test_many_live_continuations;
        ] );
      ( "kont_util",
        [
          Alcotest.test_case "cont_of_thunk deferred" `Quick
            test_cont_of_thunk_runs_later;
          Alcotest.test_case "cont_of_thunk runs when thrown" `Quick
            test_cont_of_thunk_runs_when_thrown;
          Alcotest.test_case "unit_cont_of delivers" `Quick
            test_unit_cont_delivers_value;
        ] );
    ]
