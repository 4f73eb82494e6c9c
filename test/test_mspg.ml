(* Tests for Ckpt_mspg.Mspg: smart constructors, decomposition,
   implied edges (Figure 1 structures), validation, blueprint builds,
   and QCheck round-trip properties on random M-SPGs. *)

module Mspg = Ckpt_mspg.Mspg
module Dag = Ckpt_dag.Dag
module Rng = Ckpt_prob.Rng
module Random_wf = Ckpt_workflows.Random_wf

let leaf = Mspg.leaf

let test_serial_flattens () =
  let t = Mspg.serial [ Mspg.serial [ leaf 0; leaf 1 ]; leaf 2 ] in
  match t with
  | Mspg.Serial [ Mspg.Leaf 0; Mspg.Leaf 1; Mspg.Leaf 2 ] -> ()
  | _ -> Alcotest.fail "serial did not flatten"

let test_parallel_flattens () =
  let t = Mspg.parallel [ Mspg.parallel [ leaf 0; leaf 1 ]; leaf 2 ] in
  match t with
  | Mspg.Parallel [ Mspg.Leaf 0; Mspg.Leaf 1; Mspg.Leaf 2 ] -> ()
  | _ -> Alcotest.fail "parallel did not flatten"

let test_singleton_collapses () =
  (match Mspg.serial [ leaf 3 ] with
  | Mspg.Leaf 3 -> ()
  | _ -> Alcotest.fail "serial singleton");
  match Mspg.parallel [ leaf 3 ] with
  | Mspg.Leaf 3 -> ()
  | _ -> Alcotest.fail "parallel singleton"

let test_empty_rejected () =
  Alcotest.check_raises "serial" (Invalid_argument "Mspg.serial: empty composition")
    (fun () -> ignore (Mspg.serial []));
  Alcotest.check_raises "parallel" (Invalid_argument "Mspg.parallel: empty composition")
    (fun () -> ignore (Mspg.parallel []))

let fork_join =
  (* Figure 1 fork+join: (g1 ; g2) ; (G1 || G2 || G3) ; (g3 ; g4) *)
  Mspg.serial
    [ leaf 0; leaf 1; Mspg.parallel [ leaf 2; leaf 3; leaf 4 ]; leaf 5; leaf 6 ]

let test_tasks_preorder () =
  Alcotest.(check (list int)) "preorder" [ 0; 1; 2; 3; 4; 5; 6 ] (Mspg.tree_tasks fork_join);
  Alcotest.(check int) "size" 7 (Mspg.tree_size fork_join)

let test_sources_sinks () =
  Alcotest.(check (list int)) "sources" [ 0 ] (Mspg.tree_sources fork_join);
  Alcotest.(check (list int)) "sinks" [ 6 ] (Mspg.tree_sinks fork_join);
  let bipartite =
    Mspg.serial [ Mspg.parallel [ leaf 0; leaf 1 ]; Mspg.parallel [ leaf 2; leaf 3 ] ]
  in
  Alcotest.(check (list int)) "bipartite sources" [ 0; 1 ] (Mspg.tree_sources bipartite);
  Alcotest.(check (list int)) "bipartite sinks" [ 2; 3 ] (Mspg.tree_sinks bipartite)

let test_implied_edges_fork () =
  (* Figure 1a fork: (g1 ; g2) ;-> (G1 || G2 || G3) *)
  let fork = Mspg.serial [ leaf 0; leaf 1; Mspg.parallel [ leaf 2; leaf 3; leaf 4 ] ] in
  let edges = List.sort compare (Mspg.implied_edges fork) in
  Alcotest.(check (list (pair int int)))
    "fork edges"
    [ (0, 1); (1, 2); (1, 3); (1, 4) ]
    edges

let test_implied_edges_join () =
  (* Figure 1b join: (G1 || G2 || G3) ;-> (g1 ; g2) *)
  let join = Mspg.serial [ Mspg.parallel [ leaf 0; leaf 1; leaf 2 ]; leaf 3; leaf 4 ] in
  let edges = List.sort compare (Mspg.implied_edges join) in
  Alcotest.(check (list (pair int int)))
    "join edges"
    [ (0, 3); (1, 3); (2, 3); (3, 4) ]
    edges

let test_implied_edges_bipartite () =
  (* Figure 1c bipartite: (G1 || G2) ;-> (G3 || G4): complete bipartite *)
  let bip =
    Mspg.serial [ Mspg.parallel [ leaf 0; leaf 1 ]; Mspg.parallel [ leaf 2; leaf 3 ] ]
  in
  let edges = List.sort compare (Mspg.implied_edges bip) in
  Alcotest.(check (list (pair int int)))
    "bipartite edges"
    [ (0, 2); (0, 3); (1, 2); (1, 3) ]
    edges

let test_decompose_chain_first () =
  let d = Mspg.decompose fork_join in
  Alcotest.(check (list int)) "chain" [ 0; 1 ] d.Mspg.chain;
  Alcotest.(check int) "branches" 3 (List.length d.Mspg.branches);
  match d.Mspg.rest with
  | Some (Mspg.Serial [ Mspg.Leaf 5; Mspg.Leaf 6 ]) -> ()
  | _ -> Alcotest.fail "rest should be the trailing chain"

let test_decompose_pure_chain () =
  let d = Mspg.decompose (Mspg.serial [ leaf 0; leaf 1; leaf 2 ]) in
  Alcotest.(check (list int)) "chain" [ 0; 1; 2 ] d.Mspg.chain;
  Alcotest.(check int) "no branches" 0 (List.length d.Mspg.branches);
  Alcotest.(check bool) "no rest" true (d.Mspg.rest = None)

let test_decompose_pure_parallel () =
  let d = Mspg.decompose (Mspg.parallel [ leaf 0; leaf 1 ]) in
  Alcotest.(check (list int)) "empty chain" [] d.Mspg.chain;
  Alcotest.(check int) "branches" 2 (List.length d.Mspg.branches);
  Alcotest.(check bool) "no rest" true (d.Mspg.rest = None)

let test_decompose_single_leaf () =
  let d = Mspg.decompose (leaf 9) in
  Alcotest.(check (list int)) "chain" [ 9 ] d.Mspg.chain;
  Alcotest.(check bool) "nothing else" true (d.Mspg.branches = [] && d.Mspg.rest = None)

let test_build_and_validate () =
  let bp =
    Mspg.Bserial
      [ Mspg.Btask ("a", 1.);
        Mspg.Bparallel [ Mspg.Btask ("b", 2.); Mspg.Btask ("c", 3.) ];
        Mspg.Btask ("d", 4.) ]
  in
  let m = Mspg.build ~edge_size:(fun _ _ -> 2.) bp in
  (match Mspg.validate m with
  | Ok 0 -> ()
  | Ok k -> Alcotest.failf "validate: %d implied pairs missing from a built M-SPG" k
  | Error e -> Alcotest.failf "validate: %s" e);
  Alcotest.(check int) "4 tasks" 4 (Dag.n_tasks m.Mspg.dag);
  Alcotest.(check int) "4 edges" 4 (Dag.n_edges m.Mspg.dag);
  Alcotest.(check (float 0.)) "edge size" 8. (Dag.total_data m.Mspg.dag);
  Alcotest.(check (float 0.)) "weight" 10. (Dag.total_weight m.Mspg.dag)

let test_validate_detects_missing_task () =
  let m = Mspg.build (Mspg.Bserial [ Mspg.Btask ("a", 1.); Mspg.Btask ("b", 1.) ]) in
  let bad = { m with Mspg.tree = Mspg.leaf 0 } in
  match Mspg.validate bad with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing task not detected"

let test_validate_detects_edge_mismatch () =
  let m = Mspg.build (Mspg.Bserial [ Mspg.Btask ("a", 1.); Mspg.Btask ("b", 1.) ]) in
  let bad = { m with Mspg.tree = Mspg.parallel [ Mspg.leaf 0; Mspg.leaf 1 ] } in
  match Mspg.validate bad with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "edge mismatch not detected"

let test_tree_weight () =
  let m = Mspg.build (Mspg.Bparallel [ Mspg.Btask ("a", 1.5); Mspg.Btask ("b", 2.5) ]) in
  Alcotest.(check (float 0.)) "weight" 4. (Mspg.tree_weight m.Mspg.dag m.Mspg.tree)

let test_depth () =
  Alcotest.(check int) "leaf" 1 (Mspg.depth (leaf 0));
  Alcotest.(check int) "fork-join" 3 (Mspg.depth fork_join)

(* --- QCheck --- *)

let prop_random_blueprint_validates =
  QCheck.Test.make ~name:"random M-SPG validates" ~count:100 QCheck.small_nat (fun seed ->
      let m = Random_wf.generate ~seed ~max_tasks:40 () in
      match Mspg.validate m with Ok 0 -> true | Ok _ | Error _ -> false)

let prop_decompose_partitions_tasks =
  QCheck.Test.make ~name:"decompose partitions the tasks" ~count:100 QCheck.small_nat
    (fun seed ->
      let m = Random_wf.generate ~seed ~max_tasks:40 () in
      let d = Mspg.decompose m.Mspg.tree in
      let collected =
        d.Mspg.chain
        @ List.concat_map Mspg.tree_tasks d.Mspg.branches
        @ (match d.Mspg.rest with None -> [] | Some r -> Mspg.tree_tasks r)
      in
      List.sort compare collected = List.sort compare (Mspg.tree_tasks m.Mspg.tree))

let prop_implied_edges_acyclic =
  QCheck.Test.make ~name:"implied edges form a DAG" ~count:100 QCheck.small_nat (fun seed ->
      let m = Random_wf.generate ~seed ~max_tasks:40 () in
      match Dag.check_acyclic m.Mspg.dag with () -> true | exception _ -> false)

let suite =
  [
    Alcotest.test_case "serial flattens" `Quick test_serial_flattens;
    Alcotest.test_case "parallel flattens" `Quick test_parallel_flattens;
    Alcotest.test_case "singleton collapses" `Quick test_singleton_collapses;
    Alcotest.test_case "empty rejected" `Quick test_empty_rejected;
    Alcotest.test_case "tasks preorder" `Quick test_tasks_preorder;
    Alcotest.test_case "sources/sinks" `Quick test_sources_sinks;
    Alcotest.test_case "Figure 1a fork edges" `Quick test_implied_edges_fork;
    Alcotest.test_case "Figure 1b join edges" `Quick test_implied_edges_join;
    Alcotest.test_case "Figure 1c bipartite edges" `Quick test_implied_edges_bipartite;
    Alcotest.test_case "decompose chain first" `Quick test_decompose_chain_first;
    Alcotest.test_case "decompose pure chain" `Quick test_decompose_pure_chain;
    Alcotest.test_case "decompose pure parallel" `Quick test_decompose_pure_parallel;
    Alcotest.test_case "decompose single leaf" `Quick test_decompose_single_leaf;
    Alcotest.test_case "build + validate" `Quick test_build_and_validate;
    Alcotest.test_case "validate missing task" `Quick test_validate_detects_missing_task;
    Alcotest.test_case "validate edge mismatch" `Quick test_validate_detects_edge_mismatch;
    Alcotest.test_case "tree weight" `Quick test_tree_weight;
    Alcotest.test_case "depth" `Quick test_depth;
    QCheck_alcotest.to_alcotest prop_random_blueprint_validates;
    QCheck_alcotest.to_alcotest prop_decompose_partitions_tasks;
    QCheck_alcotest.to_alcotest prop_implied_edges_acyclic;
  ]
