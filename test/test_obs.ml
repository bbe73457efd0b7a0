(* The telemetry spine: ring retention, the counter registry (including
   concurrent emitters on real domains), sinks, the telemetry instance's
   enable/disable lifecycle, and the event model's stable renderings. *)

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)

(* ---------------- ring ---------------- *)

let test_ring_create_rejects () =
  checkb "zero capacity rejected" true
    (match Obs.Ring.create ~capacity:0 with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_ring_basics () =
  let r = Obs.Ring.create ~capacity:3 in
  check "capacity" 3 (Obs.Ring.capacity r);
  check "empty" 0 (Obs.Ring.length r);
  Obs.Ring.record r 1;
  Obs.Ring.record r 2;
  Alcotest.(check (list int)) "oldest first" [ 1; 2 ] (Obs.Ring.items r);
  Obs.Ring.record r 3;
  Obs.Ring.record r 4;
  Alcotest.(check (list int)) "overwrites oldest" [ 2; 3; 4 ] (Obs.Ring.items r);
  check "length capped" 3 (Obs.Ring.length r);
  check "total counts overwritten" 4 (Obs.Ring.total_recorded r);
  let seen = ref [] in
  Obs.Ring.iter r (fun x -> seen := x :: !seen);
  Alcotest.(check (list int)) "iter order" [ 2; 3; 4 ] (List.rev !seen);
  Obs.Ring.clear r;
  check "cleared" 0 (Obs.Ring.length r);
  check "total reset" 0 (Obs.Ring.total_recorded r)

let prop_ring_last_n =
  QCheck.Test.make ~name:"ring retains exactly the last min(n, capacity) items"
    ~count:200
    QCheck.(pair (int_range 1 16) (small_list int))
    (fun (capacity, xs) ->
      let r = Obs.Ring.create ~capacity in
      List.iter (Obs.Ring.record r) xs;
      let n = List.length xs in
      let kept = min n capacity in
      let expected =
        List.filteri (fun i _ -> i >= n - kept) xs (* last [kept], in order *)
      in
      Obs.Ring.items r = expected
      && Obs.Ring.length r = kept
      && Obs.Ring.total_recorded r = n)

let prop_ring_total_monotone =
  QCheck.Test.make
    ~name:"total_recorded grows by one per record, independent of wraparound"
    ~count:200
    QCheck.(pair (int_range 1 8) (small_list int))
    (fun (capacity, xs) ->
      let r = Obs.Ring.create ~capacity in
      List.for_all
        (fun x ->
          let before = Obs.Ring.total_recorded r in
          Obs.Ring.record r x;
          Obs.Ring.total_recorded r = before + 1)
        xs)

(* ---------------- counters ---------------- *)

let test_counters_basics () =
  let t = Obs.Counters.create () in
  let a = Obs.Counters.counter t "lock.spins" in
  checks "name" "lock.spins" (Obs.Counters.name a);
  checkb "find-or-create returns the same cell" true
    (Obs.Counters.counter t "lock.spins" == a);
  checkb "find misses unknown names" true
    (Obs.Counters.find t "nope" = None);
  Obs.Counters.incr a;
  Obs.Counters.add a 4;
  check "incr + add" 5 (Obs.Counters.get a);
  Obs.Counters.set a 2;
  check "set overwrites" 2 (Obs.Counters.get a);
  Obs.Counters.max_gauge a 10;
  Obs.Counters.max_gauge a 7;
  check "max_gauge keeps high watermark" 10 (Obs.Counters.get a);
  let b = Obs.Counters.counter t "a.first" in
  Obs.Counters.set b 1;
  Alcotest.(check (list (pair string int)))
    "dump sorted by name"
    [ ("a.first", 1); ("lock.spins", 10) ]
    (Obs.Counters.dump t);
  Obs.Counters.reset t;
  check "reset zeroes" 0 (Obs.Counters.get a)

(* Concurrent emitters on real domains: no lost or torn updates.  This is
   the contract the domains backend relies on for always-on counters. *)
let test_counters_concurrent_domains () =
  let t = Obs.Counters.create () in
  let c = Obs.Counters.counter t "test.concurrent" in
  let g = Obs.Counters.counter t "test.watermark" in
  let domains = 4 and iters = 25_000 in
  let spawn d =
    Domain.spawn (fun () ->
        for i = 1 to iters do
          Obs.Counters.incr c;
          Obs.Counters.max_gauge g ((d * iters) + i)
        done)
  in
  List.iter Domain.join (List.init domains spawn);
  check "no lost increments" (domains * iters) (Obs.Counters.get c);
  check "watermark is the global max" (domains * iters) (Obs.Counters.get g)

(* ---------------- events ---------------- *)

let ev_dispatch = Obs.Event.Dispatch { proc = 2; clock = 100 }

let test_event_classification () =
  let cat e = Obs.Event.category_name (Obs.Event.category_of e) in
  checks "dispatch" "sched" (cat ev_dispatch);
  checks "freed" "proc" (cat (Obs.Event.Freed { proc = 0; clock = 1 }));
  checks "gc" "gc"
    (cat
       (Obs.Event.Gc_start
          { clock = 1; region_words = 8; kind = Obs.Event.Major; waiters = 3 }));
  checks "lock" "lock" (cat (Obs.Event.Lock_acquired { proc = 0; clock = 1 }));
  let blocked on =
    cat (Obs.Event.Blocked { proc = 0; clock = 1; thread = 3; on })
  in
  checks "cml site" "cml" (blocked "cml.sync");
  checks "select site" "select" (blocked "select.send");
  checks "sync site" "sync" (blocked "sync.ivar");
  check "clock_of" 100 (Obs.Event.clock_of ev_dispatch)

let test_event_pp_stable () =
  (* the simulator's original six renderings must not drift *)
  checks "dispatch format" "       100 dispatch p2"
    (Format.asprintf "%a" Obs.Event.pp ev_dispatch);
  (* a Major gc-start renders exactly as before kind/waiters existed, so
     stw-run traces are byte-stable across the GC-model refactor *)
  checks "gc-start major format" "        42 gc-start (region 8 words)"
    (Format.asprintf "%a" Obs.Event.pp
       (Obs.Event.Gc_start
          { clock = 42; region_words = 8; kind = Obs.Event.Major; waiters = 5 }));
  checks "gc-start minor format" "        42 gc-minor (region 8 words)"
    (Format.asprintf "%a" Obs.Event.pp
       (Obs.Event.Gc_start
          { clock = 42; region_words = 8; kind = Obs.Event.Minor; waiters = 0 }))

let test_event_json_shape () =
  checks "json one-liner"
    {|{"ts":100,"cat":"sched","ev":"dispatch","proc":2}|}
    (Obs.Event.to_json ev_dispatch);
  let j =
    Obs.Event.to_json
      (Obs.Event.Blocked { proc = 1; clock = 5; thread = 9; on = "sync.mvar" })
  in
  checkb "site quoted" true
    (String.length j > 0
    && j.[0] = '{'
    && j.[String.length j - 1] = '}'
    && (match String.index_opt j '\n' with None -> true | Some _ -> false))

(* ---------------- sinks ---------------- *)

let test_sink_jsonl_lines () =
  let path = Filename.temp_file "obs_test" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      let s = Obs.Sink.jsonl oc in
      s.Obs.Sink.emit ev_dispatch;
      s.Obs.Sink.emit
        (Obs.Event.Gc_start
           { clock = 7; region_words = 64; kind = Obs.Event.Major; waiters = 1 });
      s.Obs.Sink.flush ();
      close_out oc;
      let ic = open_in path in
      let lines = ref [] in
      (try
         while true do
           lines := input_line ic :: !lines
         done
       with End_of_file -> close_in ic);
      let lines = List.rev !lines in
      check "one event per line" 2 (List.length lines);
      List.iter
        (fun l ->
          checkb "line is a json object" true
            (String.length l > 2 && l.[0] = '{' && l.[String.length l - 1] = '}'))
        lines)

(* ---------------- telemetry instance ---------------- *)

let mk_tel ?streams ~stream ~clock () =
  Obs.Telemetry.create ?streams
    ~stream_of:(fun () -> !stream)
    ~now_ts:(fun () -> !clock)
    ()

let test_telemetry_disabled_is_noop () =
  let stream = ref 0 and clock = ref 0 in
  let t = mk_tel ~stream ~clock () in
  checkb "starts disabled" false (Obs.Telemetry.enabled t);
  Obs.Telemetry.emit t ev_dispatch;
  check "nothing recorded" 0 (Obs.Telemetry.total_recorded t);
  Alcotest.(check (list reject)) "no events" [] (Obs.Telemetry.events t);
  (* the registry is live even while events are off *)
  let c = Obs.Counters.counter (Obs.Telemetry.counters t) "x" in
  Obs.Counters.incr c;
  check "counter live while disabled" 1 (Obs.Counters.get c)

let test_telemetry_memory_lifecycle () =
  let stream = ref 0 and clock = ref 10 in
  let t = mk_tel ~stream ~clock () in
  Obs.Telemetry.enable_memory ~capacity:4 t;
  checkb "enabled" true (Obs.Telemetry.enabled t);
  check "ts reads the backend clock" 10 (Obs.Telemetry.ts t);
  Obs.Telemetry.emit t ev_dispatch;
  Obs.Telemetry.enable_memory ~capacity:4 t (* idempotent *);
  check "re-enable keeps contents" 1 (Obs.Telemetry.total_recorded t);
  checkb "ring visible" true (Obs.Telemetry.ring t 0 <> None);
  Obs.Telemetry.disable t;
  checkb "disabled again" false (Obs.Telemetry.enabled t);
  Obs.Telemetry.emit t ev_dispatch;
  check "emission stopped" 0 (Obs.Telemetry.total_recorded t)

let test_telemetry_merges_streams () =
  let stream = ref 0 and clock = ref 0 in
  let t = mk_tel ~streams:2 ~stream ~clock () in
  Obs.Telemetry.enable_memory t;
  let emit s c =
    stream := s;
    Obs.Telemetry.emit t (Obs.Event.Dispatch { proc = s; clock = c })
  in
  emit 0 5;
  emit 1 1;
  emit 0 9;
  emit 1 7;
  emit 99 3 (* out-of-range stream falls back to stream 0 *);
  Alcotest.(check (list int))
    "merged in timestamp order" [ 1; 3; 5; 7; 9 ]
    (List.map Obs.Event.clock_of (Obs.Telemetry.events t));
  check "all retained" 5 (Obs.Telemetry.total_recorded t)

let qt = Testkit.to_alcotest

let () =
  Alcotest.run "obs"
    [
      ( "ring",
        [
          Alcotest.test_case "create rejects" `Quick test_ring_create_rejects;
          Alcotest.test_case "basics" `Quick test_ring_basics;
          qt prop_ring_last_n;
          qt prop_ring_total_monotone;
        ] );
      ( "counters",
        [
          Alcotest.test_case "basics" `Quick test_counters_basics;
          Alcotest.test_case "concurrent domains" `Slow
            test_counters_concurrent_domains;
        ] );
      ( "events",
        [
          Alcotest.test_case "classification" `Quick test_event_classification;
          Alcotest.test_case "pp stable" `Quick test_event_pp_stable;
          Alcotest.test_case "json shape" `Quick test_event_json_shape;
        ] );
      ( "sinks",
        [
          Alcotest.test_case "jsonl lines" `Quick test_sink_jsonl_lines;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "disabled is no-op" `Quick
            test_telemetry_disabled_is_noop;
          Alcotest.test_case "memory lifecycle" `Quick
            test_telemetry_memory_lifecycle;
          Alcotest.test_case "merges streams" `Quick test_telemetry_merges_streams;
        ] );
    ]
