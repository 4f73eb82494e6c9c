(* The structural replan caches of Ckpt_sim.Degrade and Ckpt_sim.Cloud:
   hit/miss counters, and the contract that caching is invisible — trial
   arrays bitwise identical with the cache on or off, at any [jobs]. *)

module Spec = Ckpt_workflows.Spec
module Pipeline = Ckpt_core.Pipeline
module Strategy = Ckpt_core.Strategy
module Degrade = Ckpt_sim.Degrade
module Cloud = Ckpt_sim.Cloud

let genome_plan ?(tasks = 50) ?(processors = 5) () =
  let dag = Spec.generate Spec.Genome ~seed:1 ~tasks () in
  let setup = Pipeline.prepare ~dag ~processors ~pfail:0.001 ~ccr:0.1 () in
  Pipeline.plan setup Strategy.Ckpt_some

let deadly_config plan =
  (* high enough death rate that most trials replan at least once *)
  {
    Degrade.lambda_death = 2. /. plan.Strategy.wpar;
    max_losses = 1;
    kind = Strategy.Ckpt_some;
    store = Ckpt_storage.Store.default;
  }

(* revocations frequent enough that most trials replan, with a grace
   window long enough for warning rescues to change the frontier *)
let revoking_config plan =
  {
    Cloud.lambda_revoke = 2. /. plan.Strategy.wpar;
    grace = plan.Strategy.wpar /. 20.;
    max_revocations = 2;
    kind = Strategy.Ckpt_some;
    store = Ckpt_storage.Store.default;
  }

let test_counters_accumulate () =
  let plan = genome_plan () in
  let config = deadly_config plan in
  let prepared = Degrade.prepare plan in
  Alcotest.(check (pair int int)) "fresh cache" (0, 0) (Degrade.cache_stats prepared);
  let _ = Degrade.sample_prepared ~trials:40 ~seed:13 ~mode:Degrade.Repair config prepared in
  let hits, misses = Degrade.cache_stats prepared in
  Alcotest.(check bool) "replans happened" true (hits + misses > 0);
  Alcotest.(check bool) "at least one miss fills the cache" true (misses > 0);
  (* the same trials again: every replan state was seen, so only hits *)
  let _ = Degrade.sample_prepared ~trials:40 ~seed:13 ~mode:Degrade.Repair config prepared in
  let hits2, misses2 = Degrade.cache_stats prepared in
  Alcotest.(check int) "no new misses on replay" misses misses2;
  Alcotest.(check bool) "replay hits" true (hits2 > hits)

let test_disabled_cache_counts_nothing () =
  let plan = genome_plan () in
  let config = deadly_config plan in
  let prepared = Degrade.prepare ~cache:false plan in
  let _ = Degrade.sample_prepared ~trials:30 ~seed:13 ~mode:Degrade.Repair config prepared in
  Alcotest.(check (pair int int)) "disabled cache stays empty" (0, 0)
    (Degrade.cache_stats prepared)

let test_cached_equals_uncached () =
  let plan = genome_plan () in
  let config = deadly_config plan in
  List.iter
    (fun mode ->
      let on = Degrade.prepare plan in
      let off = Degrade.prepare ~cache:false plan in
      let a = Degrade.sample_prepared ~trials:40 ~seed:13 ~mode config on in
      let b = Degrade.sample_prepared ~trials:40 ~seed:13 ~mode config off in
      Alcotest.(check bool)
        (Degrade.mode_name mode ^ ": cache on = cache off, bitwise")
        true (a = b))
    [ Degrade.Repair; Degrade.Restart ];
  let config = revoking_config plan in
  let on = Cloud.prepare plan in
  let off = Cloud.prepare ~cache:false plan in
  let a = Cloud.sample_prepared ~trials:40 ~seed:13 ~mode:Cloud.Checkpoint config on in
  let b = Cloud.sample_prepared ~trials:40 ~seed:13 ~mode:Cloud.Checkpoint config off in
  let hits, misses = Cloud.cache_stats on in
  Alcotest.(check bool) "cloud: replans went through the cache" true (hits + misses > 0);
  Alcotest.(check (pair int int)) "cloud: disabled cache stays empty" (0, 0)
    (Cloud.cache_stats off);
  Alcotest.(check bool) "cloud ckpt: cache on = cache off, bitwise" true (a = b)

let test_cached_jobs_invariant () =
  let plan = genome_plan () in
  let config = deadly_config plan in
  let prepared = Degrade.prepare plan in
  let seq = Degrade.sample_prepared ~trials:40 ~seed:13 ~jobs:1 ~mode:Degrade.Repair config prepared in
  let par = Degrade.sample_prepared ~trials:40 ~seed:13 ~jobs:4 ~mode:Degrade.Repair config prepared in
  Alcotest.(check bool) "jobs=1 = jobs=4 on a shared cache, bitwise" true (seq = par);
  (* each key is computed once, so a fresh cache counts the same hits
     and misses however many domains share it *)
  let stats jobs =
    let prepared = Degrade.prepare plan in
    ignore (Degrade.sample_prepared ~trials:60 ~seed:13 ~jobs ~mode:Degrade.Repair config prepared);
    Degrade.cache_stats prepared
  in
  Alcotest.(check (pair int int)) "fresh cache: jobs=1 and jobs=4 count alike" (stats 1)
    (stats 4);
  let config = revoking_config plan in
  let prepared = Cloud.prepare plan in
  let sample jobs =
    Cloud.sample_prepared ~trials:40 ~seed:13 ~jobs ~mode:Cloud.Checkpoint config prepared
  in
  let seq = sample 1 in
  let par = sample 4 in
  Alcotest.(check bool) "cloud ckpt: jobs=1 = jobs=4 on a shared cache, bitwise" true
    (seq = par);
  let stats jobs =
    let prepared = Cloud.prepare plan in
    ignore (Cloud.sample_prepared ~trials:60 ~seed:13 ~jobs ~mode:Cloud.Checkpoint config prepared);
    Cloud.cache_stats prepared
  in
  Alcotest.(check (pair int int)) "cloud ckpt, fresh cache: jobs=1 and jobs=4 count alike"
    (stats 1) (stats 4)

let test_restart_reuses_single_entry () =
  (* Restart always replans from an empty frontier: for a fixed
     survivor set there is exactly one cache entry, so misses are
     bounded by the number of distinct survivor sets (<= processors
     with max_losses = 1) *)
  let plan = genome_plan () in
  let config = deadly_config plan in
  let prepared = Degrade.prepare plan in
  let _ = Degrade.sample_prepared ~trials:60 ~seed:13 ~mode:Degrade.Restart config prepared in
  let hits, misses = Degrade.cache_stats prepared in
  Alcotest.(check bool) "replans happened" true (hits + misses > 0);
  Alcotest.(check bool)
    (Printf.sprintf "misses (%d) bounded by survivor sets" misses)
    true
    (misses <= plan.Strategy.platform.Ckpt_platform.Platform.processors)

let suite =
  [
    Alcotest.test_case "counters accumulate" `Quick test_counters_accumulate;
    Alcotest.test_case "disabled cache counts nothing" `Quick test_disabled_cache_counts_nothing;
    Alcotest.test_case "cache on = cache off" `Quick test_cached_equals_uncached;
    Alcotest.test_case "cached jobs invariant" `Quick test_cached_jobs_invariant;
    Alcotest.test_case "restart reuses one entry per survivor set" `Quick
      test_restart_reuses_single_entry;
  ]
