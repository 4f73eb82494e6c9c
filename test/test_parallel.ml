(* Tests for the multicore Monte-Carlo engine: the domain pool, the
   compiled CSR prob-DAG against a straightforward list-based reference
   implementation, and the bitwise jobs-invariance guarantees of
   Montecarlo and Runner. *)

module Rng = Ckpt_prob.Rng
module Stats = Ckpt_prob.Stats
module Prob_dag = Ckpt_eval.Prob_dag
module Montecarlo = Ckpt_eval.Montecarlo
module Pool = Ckpt_parallel.Pool

(* --- Pool --- *)

(* every batch runs on the process-wide pool; [~jobs:4] is wider than
   most test machines, so batches clamp to effective_jobs *)

let test_pool_map_identity () =
  let r = Pool.map_shared ~jobs:4 100 (fun i -> i * i) in
  Alcotest.(check (array int)) "map" (Array.init 100 (fun i -> i * i)) r

let test_pool_map_propagates_exception () =
  match Pool.map_shared ~jobs:3 50 (fun i -> if i = 17 then failwith "boom" else i) with
  | exception Failure m -> Alcotest.(check string) "message" "boom" m
  | _ -> Alcotest.fail "expected Failure"

exception Boom of int

(* A worker raising mid-map must finish the whole batch before the
   exception reaches the caller, preserve the first exception together
   with its backtrace, and leave the pool immediately reusable. *)
let test_pool_map_exception_joins_and_reuse () =
  Printexc.record_backtrace true;
  let running = Atomic.make 0 in
  let raised =
    try
      ignore
        (Pool.map_shared ~jobs:4 64 (fun i ->
             Atomic.incr running;
             Fun.protect
               ~finally:(fun () -> Atomic.decr running)
               (fun () ->
                 if i = 17 then raise (Boom i);
                 Sys.opaque_identity i)));
      false
    with Boom 17 ->
      let bt = Printexc.get_raw_backtrace () in
      Alcotest.(check bool) "backtrace preserved" true (Printexc.raw_backtrace_length bt > 0);
      true
  in
  Alcotest.(check bool) "the one raised exception propagated" true raised;
  (* a finished batch cannot still have a worker inside its body *)
  Alcotest.(check int) "all workers quiesced" 0 (Atomic.get running);
  let r = Pool.map_shared ~jobs:4 32 (fun i -> i + 1) in
  Alcotest.(check (array int)) "pool reusable after failure" (Array.init 32 (fun i -> i + 1)) r;
  Alcotest.(check int) "sequential path too" 0
    (try Pool.map_shared ~jobs:1 4 (fun i -> if i = 2 then raise (Boom i) else i) |> Array.length
     with Boom 2 -> 0)

(* a batch body that submits again must not wait on a pool whose
   workers are all busy running batch bodies: the nested call runs
   inline, on the calling domain, in index order. Each item sleeps so
   that a nested call that did reach a pool would hand items to its
   woken helpers. *)
let test_pool_nested_runs_inline () =
  let inline = Atomic.make true in
  ignore
    (Pool.map_shared ~jobs:4 4 (fun _ ->
         let me = Domain.self () in
         let order = ref [] in
         let r =
           Pool.map_shared ~jobs:4 8 (fun i ->
               Unix.sleepf 0.002;
               if Domain.self () <> me then Atomic.set inline false;
               order := i :: !order;
               i)
         in
         if r <> Array.init 8 Fun.id || List.rev !order <> List.init 8 Fun.id then
           Atomic.set inline false));
  Alcotest.(check bool) "nested map_shared ran inline, in order" true (Atomic.get inline)

(* a batch from another domain must not queue behind a batch that
   owns the pool: domain A's batch body waits (at most 5 s) for the
   test domain's own map_shared to return, which computes inline
   instead of waiting for A's batch to finish. On a 1-core machine
   both batches run inline and the case holds trivially *)
let test_pool_busy_runs_inline () =
  let started = Atomic.make false and b_done = Atomic.make false in
  let a =
    Domain.spawn (fun () ->
        Pool.map_shared ~jobs:2 2 (fun _ ->
            Atomic.set started true;
            let t0 = Unix.gettimeofday () in
            while (not (Atomic.get b_done)) && Unix.gettimeofday () -. t0 < 5. do
              Unix.sleepf 0.001
            done;
            Atomic.get b_done))
  in
  while not (Atomic.get started) do
    Unix.sleepf 0.001
  done;
  let r = Pool.map_shared ~jobs:2 8 (fun i -> i * i) in
  Atomic.set b_done true;
  let waited = Domain.join a in
  Alcotest.(check (array int)) "B's results" (Array.init 8 (fun i -> i * i)) r;
  Alcotest.(check (array bool)) "A's batch saw B finish while it held the pool" [| true; true |]
    waited

(* --- reference prob-DAG: adjacency lists, no CSR, no scratch --- *)

type ref_node = { base : float; degraded : float; pfail : float }
type ref_dag = { nodes : ref_node array; edges : (int * int) list }

(* random 2-state DAG with edges only from lower to higher ids *)
let random_ref seed n =
  let rng = Rng.create seed in
  let nodes =
    Array.init n (fun _ ->
        let base = 1. +. Rng.float rng 9. in
        { base; degraded = base *. 1.5; pfail = Rng.float rng 0.5 })
  in
  let edges = ref [] in
  for u = 0 to n - 2 do
    for v = u + 1 to n - 1 do
      if Rng.uniform rng < 0.25 then edges := (u, v) :: !edges
    done
  done;
  { nodes; edges = !edges }

let build_prob_dag r =
  let pd = Prob_dag.create () in
  Array.iter
    (fun nd -> ignore (Prob_dag.add_node pd ~base:nd.base ~degraded:nd.degraded ~pfail:nd.pfail))
    r.nodes;
  List.iter (fun (u, v) -> Prob_dag.add_edge pd u v) r.edges;
  pd

(* longest path over explicit durations; ids are already topological *)
let ref_longest r dur =
  let n = Array.length r.nodes in
  let dist = Array.make n 0. in
  List.iter (fun (u, v) -> if dist.(u) +. dur.(u) > dist.(v) then dist.(v) <- dist.(u) +. dur.(u))
    (List.sort compare r.edges);
  let best = ref 0. in
  for i = 0 to n - 1 do
    if dist.(i) +. dur.(i) > !best then best := dist.(i) +. dur.(i)
  done;
  !best

(* mirrors the documented draw semantics of [Prob_dag.sample]: seed a
   bulk stream from the rng, then one stream_uniform per node with
   pfail > 0, in node-id order *)
let ref_sample r rng =
  let st = Rng.stream rng in
  let dur =
    Array.map
      (fun nd ->
        if nd.pfail > 0. && Rng.stream_uniform st < nd.pfail then nd.degraded else nd.base)
      r.nodes
  in
  ref_longest r dur

let prop_csr_matches_reference =
  QCheck.Test.make ~name:"CSR sample/makespan/topo match list-based reference" ~count:40
    QCheck.(pair small_nat (int_range 1 25))
    (fun (seed, n) ->
      let r = random_ref seed n in
      let pd = build_prob_dag r in
      (* deterministic makespan is the longest path at base durations *)
      let det_ok =
        Prob_dag.deterministic_makespan pd
        = ref_longest r (Array.map (fun nd -> nd.base) r.nodes)
      in
      (* the topological order respects every edge *)
      let order = Prob_dag.topological_order pd in
      let pos = Array.make n 0 in
      Array.iteri (fun k u -> pos.(u) <- k) order;
      let topo_ok = List.for_all (fun (u, v) -> pos.(u) < pos.(v)) r.edges in
      (* identical sample streams from identically-seeded generators *)
      let ra = Rng.create (seed + 1) and rb = Rng.create (seed + 1) in
      let samples_ok = ref true in
      for _ = 1 to 20 do
        if Prob_dag.sample pd ra <> ref_sample r rb then samples_ok := false
      done;
      det_ok && topo_ok && !samples_ok)

let test_duplicate_edges_deduplicated () =
  let pd = Prob_dag.create () in
  let a = Prob_dag.add_node pd ~base:1. ~degraded:2. ~pfail:0.1 in
  let b = Prob_dag.add_node pd ~base:1. ~degraded:2. ~pfail:0.1 in
  let c = Prob_dag.add_node pd ~base:1. ~degraded:2. ~pfail:0.1 in
  for _ = 1 to 500 do
    Prob_dag.add_edge pd a c;
    Prob_dag.add_edge pd a b
  done;
  Alcotest.(check (list int)) "succs sorted + deduped" [ b; c ] (Prob_dag.succs pd a);
  Alcotest.(check (list int)) "preds deduped" [ a ] (Prob_dag.preds pd c);
  Alcotest.(check (float 0.)) "makespan unaffected" 2. (Prob_dag.deterministic_makespan pd)

(* --- jobs-invariance --- *)

let check_stats_bitwise what a b =
  Alcotest.(check int) (what ^ " count") (Stats.count a) (Stats.count b);
  Alcotest.(check (float 0.)) (what ^ " mean") (Stats.mean a) (Stats.mean b);
  Alcotest.(check (float 0.)) (what ^ " variance") (Stats.variance a) (Stats.variance b);
  Alcotest.(check (float 0.)) (what ^ " min") (Stats.min a) (Stats.min b);
  Alcotest.(check (float 0.)) (what ^ " max") (Stats.max a) (Stats.max b)

let prop_estimate_jobs_invariant =
  (* trials straddle several 128-trial chunks, including a ragged tail *)
  QCheck.Test.make ~name:"Montecarlo.estimate_with_stats is bitwise jobs-invariant"
    ~count:15
    QCheck.(triple small_nat (int_range 2 18) (int_range 2 4))
    (fun (seed, n, jobs) ->
      let pd = build_prob_dag (random_ref seed n) in
      let seq = Montecarlo.estimate_with_stats ~trials:700 ~seed ~jobs:1 pd in
      let par = Montecarlo.estimate_with_stats ~trials:700 ~seed ~jobs pd in
      Stats.count seq = Stats.count par
      && Stats.mean seq = Stats.mean par
      && Stats.variance seq = Stats.variance par
      && Stats.min seq = Stats.min par
      && Stats.max seq = Stats.max par)

let test_estimate_jobs_invariant_large () =
  let dag = Ckpt_workflows.Spec.generate Ckpt_workflows.Spec.Genome ~seed:1 ~tasks:50 () in
  let setup = Ckpt_core.Pipeline.prepare ~dag ~processors:5 ~pfail:0.001 ~ccr:0.01 () in
  let plan = Ckpt_core.Pipeline.plan setup Ckpt_core.Strategy.Ckpt_some in
  let pd = Option.get plan.Ckpt_core.Strategy.prob_dag in
  let seq = Montecarlo.estimate_with_stats ~trials:1000 ~seed:3 ~jobs:1 pd in
  let par = Montecarlo.estimate_with_stats ~trials:1000 ~seed:3 ~jobs:4 pd in
  check_stats_bitwise "genome-50" seq par

let test_runner_jobs_invariant () =
  let dag = Ckpt_workflows.Spec.generate Ckpt_workflows.Spec.Genome ~seed:1 ~tasks:50 () in
  let setup = Ckpt_core.Pipeline.prepare ~dag ~processors:5 ~pfail:0.001 ~ccr:0.01 () in
  List.iter
    (fun kind ->
      let plan = Ckpt_core.Pipeline.plan setup kind in
      let seq = Ckpt_sim.Runner.sample_makespans ~trials:300 ~seed:5 ~jobs:1 plan in
      List.iter
        (fun jobs ->
          let par = Ckpt_sim.Runner.sample_makespans ~trials:300 ~seed:5 ~jobs plan in
          if seq <> par then
            Alcotest.failf "sample_makespans differs between jobs=1 and jobs=%d" jobs)
        [ 2; 3; 4 ])
    [ Ckpt_core.Strategy.Ckpt_some; Ckpt_core.Strategy.Ckpt_none ]

let test_for_trial_pure () =
  let a = Rng.for_trial ~seed:42 17 and b = Rng.for_trial ~seed:42 17 in
  Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b);
  let c = Rng.for_trial ~seed:42 18 in
  if Rng.bits64 (Rng.for_trial ~seed:42 17) = Rng.bits64 c then
    Alcotest.fail "adjacent trials share their first output"

let test_stream_threshold_equivalence () =
  (* the integer-threshold compare used by the sampler agrees with the
     documented float form on either side of representable boundaries *)
  List.iter
    (fun p ->
      let th = int_of_float (Float.ceil (p *. 0x1p53)) in
      let st_a = Rng.stream (Rng.create 9) and st_b = Rng.stream (Rng.create 9) in
      for _ = 1 to 1000 do
        let ia = Rng.stream_bits53 st_a < th and fa = Rng.stream_uniform st_b < p in
        if ia <> fa then Alcotest.failf "threshold mismatch at p=%.17g" p
      done)
    [ 0.; 1e-300; 0.25; 0.5; 1. /. 3.; 0.9999999; 1. ]

let suite =
  [
    Alcotest.test_case "pool map identity" `Quick test_pool_map_identity;
    Alcotest.test_case "pool map propagates exception" `Quick test_pool_map_propagates_exception;
    Alcotest.test_case "pool map exception joins + reuse" `Quick
      test_pool_map_exception_joins_and_reuse;
    Alcotest.test_case "pool nested map_shared runs inline" `Quick test_pool_nested_runs_inline;
    QCheck_alcotest.to_alcotest prop_csr_matches_reference;
    Alcotest.test_case "duplicate edges deduplicated" `Quick test_duplicate_edges_deduplicated;
    QCheck_alcotest.to_alcotest prop_estimate_jobs_invariant;
    Alcotest.test_case "estimate jobs-invariant (genome)" `Quick test_estimate_jobs_invariant_large;
    Alcotest.test_case "runner jobs-invariant" `Quick test_runner_jobs_invariant;
    Alcotest.test_case "for_trial is pure" `Quick test_for_trial_pure;
    Alcotest.test_case "stream threshold equivalence" `Quick test_stream_threshold_equivalence;
    Alcotest.test_case "pool busy: another domain's batch runs inline" `Quick
      test_pool_busy_runs_inline;
  ]
