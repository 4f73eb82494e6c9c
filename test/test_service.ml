(* Ckpt_core.Service under daemon conditions: LRU capacity bounds,
   eviction/race counters, compute-once lookups and multi-domain
   hammering — the properties the hardened [ckptwf serve] relies on to
   stay resident for days. *)

module Spec = Ckpt_workflows.Spec
module Pipeline = Ckpt_core.Pipeline
module Strategy = Ckpt_core.Strategy
module Service = Ckpt_core.Service

(* distinct deterministic plans, one per key suffix: seed variation
   changes the DAG, so plans differ structurally across keys *)
let plan_for ?(tasks = 30) seed =
  let dag = Spec.generate Spec.Genome ~seed ~tasks () in
  let setup = Pipeline.prepare ~dag ~processors:5 ~pfail:0.001 ~ccr:0.1 () in
  Pipeline.plan setup Strategy.Ckpt_some

let setup_for seed =
  let dag = Spec.generate Spec.Genome ~seed ~tasks:30 () in
  Pipeline.prepare ~dag ~processors:5 ~pfail:0.001 ~ccr:0.1 ()

let key i = Printf.sprintf "k%d" i

let test_unbounded_by_default () =
  let t = Service.create () in
  let p = plan_for 1 in
  for i = 1 to 50 do
    ignore (Service.store_plan t ~key:(key i) p)
  done;
  let s = Service.stats t in
  Alcotest.(check int) "no evictions unbounded" 0 s.Service.plan_evictions;
  for i = 1 to 50 do
    Alcotest.(check bool)
      (key i ^ " still cached")
      true
      (Service.find_plan t ~key:(key i) <> None)
  done

let test_lru_evicts_least_recently_used () =
  let t = Service.create ~cap:2 () in
  let p1 = plan_for 1 and p2 = plan_for 2 and p3 = plan_for 3 in
  ignore (Service.store_plan t ~key:"a" p1);
  ignore (Service.store_plan t ~key:"b" p2);
  (* touch "a" so "b" becomes the LRU victim *)
  Alcotest.(check bool) "a hits" true (Service.find_plan t ~key:"a" <> None);
  ignore (Service.store_plan t ~key:"c" p3);
  let s = Service.stats t in
  Alcotest.(check int) "one eviction" 1 s.Service.plan_evictions;
  Alcotest.(check bool) "a survived (recently used)" true
    (Service.find_plan t ~key:"a" <> None);
  Alcotest.(check bool) "b evicted (least recently used)" true
    (Service.find_plan t ~key:"b" = None);
  Alcotest.(check bool) "c present" true (Service.find_plan t ~key:"c" <> None)

let test_plan_memo_respects_cap () =
  let t = Service.create ~cap:3 () in
  let computes = ref 0 in
  for round = 1 to 3 do
    ignore round;
    for i = 1 to 10 do
      ignore
        (Service.plan t ~key:(key i) (fun () ->
             incr computes;
             plan_for (i mod 4)))
    done
  done;
  let s = Service.stats t in
  Alcotest.(check int) "inserts = misses" !computes s.Service.plan_misses;
  Alcotest.(check bool) "cap forced evictions" true (s.Service.plan_evictions > 0);
  (* live entries never exceed the cap: at most 3 of the 10 keys resolve *)
  let live = ref 0 in
  for i = 1 to 10 do
    if Service.find_plan t ~key:(key i) <> None then incr live
  done;
  Alcotest.(check bool) "at most cap live" true (!live <= 3)

let test_store_plan_race_counted_once () =
  let t = Service.create () in
  let p = plan_for 1 in
  let first = Service.store_plan t ~key:"k" p in
  Alcotest.(check bool) "first insert returns the plan" true (first == p);
  (* a racing duplicate compute offers an identical plan: the incumbent
     wins and the duplicate is counted, not silently discarded *)
  let p' = plan_for 1 in
  let second = Service.store_plan t ~key:"k" p' in
  Alcotest.(check bool) "incumbent kept" true (second == p);
  let s = Service.stats t in
  Alcotest.(check int) "race counted once" 1 s.Service.plan_races;
  ignore (Service.store_plan t ~key:"k" p');
  Alcotest.(check int) "counted per losing insert" 2
    (Service.stats t).Service.plan_races

let test_hit_and_miss_counters () =
  let t = Service.create () in
  ignore (Service.plan t ~key:"k" (fun () -> plan_for 1));
  ignore (Service.plan t ~key:"k" (fun () -> plan_for 1));
  ignore (Service.plan t ~key:"k" (fun () -> plan_for 1));
  let s = Service.stats t in
  Alcotest.(check int) "one miss" 1 s.Service.plan_misses;
  Alcotest.(check int) "two hits" 2 s.Service.plan_hits

(* the daemon's actual concurrency shape: several connection-handler
   domains hammering one bounded service on overlapping keys. The cap
   must hold and the counters must reconcile, whatever the schedule. *)
let test_concurrent_domains_bounded () =
  let cap = 4 in
  let t = Service.create ~cap () in
  let domains = 4 and rounds = 25 in
  let plans = Array.init 8 (fun i -> plan_for (i + 1)) in
  let worker d () =
    for r = 0 to rounds - 1 do
      let i = (d + r) mod 8 in
      let computed =
        Service.plan t ~key:(key i) (fun () -> plans.(i))
      in
      (* planning is deterministic: whoever computed it, the cached
         value for key i must be plan i *)
      if computed.Strategy.checkpoint_count <> plans.(i).Strategy.checkpoint_count
      then Alcotest.failf "domain %d saw a foreign plan under %s" d (key i);
      ignore (Service.store_plan t ~key:(key i) plans.(i))
    done
  in
  let spawned = List.init (domains - 1) (fun d -> Domain.spawn (worker (d + 1))) in
  worker 0 ();
  List.iter Domain.join spawned;
  let live = ref 0 in
  for i = 0 to 7 do
    if Service.find_plan t ~key:(key i) <> None then incr live
  done;
  Alcotest.(check bool) "cap held under concurrency" true (!live <= cap);
  let s = Service.stats t in
  (* [plan] and [store_plan] each look their key up once a round *)
  Alcotest.(check int) "every lookup accounted" (2 * domains * rounds)
    (s.Service.plan_hits + s.Service.plan_misses);
  Alcotest.(check bool) "evictions happened" true (s.Service.plan_evictions > 0)

(* four connection handlers that miss one cold setup key together:
   the first computes it, the others wait for that value and count
   hits, so the setup is built once *)
let test_cold_setup_computed_once () =
  let t = Service.create () in
  let computes = Atomic.make 0 and go = Atomic.make false in
  let lookup () =
    while not (Atomic.get go) do
      Domain.cpu_relax ()
    done;
    Service.setup t ~key:"cold" (fun () ->
        Atomic.incr computes;
        (* long enough for every domain to look the key up while it is
           in flight *)
        Unix.sleepf 0.05;
        setup_for 1)
  in
  let spawned = List.init 3 (fun _ -> Domain.spawn lookup) in
  Atomic.set go true;
  let mine = lookup () in
  let others = List.map Domain.join spawned in
  Alcotest.(check int) "one compute" 1 (Atomic.get computes);
  Alcotest.(check bool) "one physical setup" true (List.for_all (fun s -> s == mine) others);
  let s = Service.stats t in
  Alcotest.(check (pair int int)) "one miss, three hits" (1, 3)
    (s.Service.setup_misses, s.Service.setup_hits)

let suite =
  [
    Alcotest.test_case "unbounded by default" `Quick test_unbounded_by_default;
    Alcotest.test_case "LRU evicts least recently used" `Quick
      test_lru_evicts_least_recently_used;
    Alcotest.test_case "memoised plan respects cap" `Quick test_plan_memo_respects_cap;
    Alcotest.test_case "cold setup computed once by 4 domains" `Quick
      test_cold_setup_computed_once;
    Alcotest.test_case "store_plan race counted once" `Quick
      test_store_plan_race_counted_once;
    Alcotest.test_case "hit/miss counters" `Quick test_hit_and_miss_counters;
    Alcotest.test_case "concurrent domains respect the cap" `Quick
      test_concurrent_domains_bounded;
  ]
