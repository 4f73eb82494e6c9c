(* Tests for Ckpt_workflows: the three Pegasus-like generators must
   produce acyclic, connected-enough, M-SPG(-completable) workflows of
   the requested size, deterministically per seed. *)

module Dag = Ckpt_dag.Dag
module Spec = Ckpt_workflows.Spec
module Recognize = Ckpt_mspg.Recognize
module Mspg = Ckpt_mspg.Mspg

let sizes = [ 50; 300; 1000 ]

let test_task_counts () =
  List.iter
    (fun kind ->
      List.iter
        (fun n ->
          let dag = Spec.generate kind ~seed:1 ~tasks:n () in
          let actual = Dag.n_tasks dag in
          let tolerance = max 3 (n / 20) in
          if abs (actual - n) > tolerance then
            Alcotest.failf "%s: wanted ~%d tasks, got %d" (Spec.name kind) n actual)
        sizes)
    Spec.all

let test_acyclic () =
  List.iter
    (fun kind ->
      List.iter
        (fun n -> Dag.check_acyclic (Spec.generate kind ~seed:2 ~tasks:n ()))
        sizes)
    Spec.all

let test_deterministic_per_seed () =
  List.iter
    (fun kind ->
      let d1 = Spec.generate kind ~seed:9 ~tasks:100 () in
      let d2 = Spec.generate kind ~seed:9 ~tasks:100 () in
      Alcotest.(check int) "same tasks" (Dag.n_tasks d1) (Dag.n_tasks d2);
      Alcotest.(check int) "same edges" (Dag.n_edges d1) (Dag.n_edges d2);
      Alcotest.(check (float 1e-9)) "same weight" (Dag.total_weight d1) (Dag.total_weight d2);
      Alcotest.(check (float 1e-6)) "same data" (Dag.total_data d1) (Dag.total_data d2))
    Spec.all

let test_seed_changes_instance () =
  let d1 = Spec.generate Spec.Genome ~seed:1 ~tasks:100 () in
  let d2 = Spec.generate Spec.Genome ~seed:2 ~tasks:100 () in
  Alcotest.(check bool) "weights differ across seeds" true
    (Dag.total_weight d1 <> Dag.total_weight d2)

let test_positive_weights_and_sizes () =
  List.iter
    (fun kind ->
      let dag = Spec.generate kind ~seed:3 ~tasks:300 () in
      Array.iter
        (fun t ->
          if t.Ckpt_dag.Task.weight <= 0. then
            Alcotest.failf "%s: non-positive weight" (Spec.name kind))
        (Dag.tasks dag);
      Array.iter
        (fun (f : Dag.file) ->
          if f.Dag.size < 0. then Alcotest.failf "%s: negative file" (Spec.name kind))
        (Dag.files dag))
    Spec.all

let test_genome_strict_mspg () =
  List.iter
    (fun n ->
      let dag = Spec.generate Spec.Genome ~seed:4 ~tasks:n () in
      if not (Recognize.is_mspg dag) then Alcotest.failf "genome %d not a strict M-SPG" n)
    sizes

let test_all_workflows_completable () =
  List.iter
    (fun kind ->
      List.iter
        (fun n ->
          let dag = Spec.generate kind ~seed:5 ~tasks:n () in
          match Recognize.of_dag_completed dag with
          | Ok (m, dummies) -> (
              (* the tree implies every edge plus exactly the dummies *)
              match Mspg.validate m with
              | Ok k when k = dummies -> ()
              | Ok k ->
                  Alcotest.failf "%s %d: %d implied pairs missing, %d dummies" (Spec.name kind)
                    n k dummies
              | Error e -> Alcotest.failf "%s %d: %s" (Spec.name kind) n e)
          | Error e -> Alcotest.failf "%s %d not completable: %s" (Spec.name kind) n e)
        sizes)
    Spec.all

let test_montage_needs_completion () =
  let dag = Spec.generate Spec.Montage ~seed:6 ~tasks:50 () in
  Alcotest.(check bool) "overlap block is incomplete bipartite" false (Recognize.is_mspg dag)

let test_ligo_strict_without_crossings () =
  let dag = Ckpt_workflows.Ligo.generate ~seed:6 ~cross_group:0. ~tasks:300 () in
  Alcotest.(check bool) "no crossings -> strict M-SPG" true (Recognize.is_mspg dag)

let test_montage_has_shared_broadcast_file () =
  let dag = Spec.generate Spec.Montage ~seed:7 ~tasks:50 () in
  (* the mBgModel correction table is one file consumed by all
     mBackground tasks: find a file with many consumers *)
  let consumers = Hashtbl.create 64 in
  for u = 0 to Dag.n_tasks dag - 1 do
    List.iter
      (fun ((_ : int), (f : Dag.file)) ->
        Hashtbl.replace consumers f.Dag.file_id
          (1 + Option.value ~default:0 (Hashtbl.find_opt consumers f.Dag.file_id)))
      (Dag.preds dag u)
  done;
  let max_consumers = Hashtbl.fold (fun _ c acc -> max c acc) consumers 0 in
  Alcotest.(check bool) "broadcast file exists" true (max_consumers >= 10)

let test_workflows_have_initial_inputs () =
  List.iter
    (fun kind ->
      let dag = Spec.generate kind ~seed:8 ~tasks:50 () in
      let has_input = ref false in
      for t = 0 to Dag.n_tasks dag - 1 do
        if Dag.inputs dag t <> [] then has_input := true
      done;
      Alcotest.(check bool) (Spec.name kind ^ " reads initial inputs") true !has_input)
    Spec.all

let test_single_source_structurally () =
  (* every generated workflow's entry tasks have no predecessors *)
  List.iter
    (fun kind ->
      let dag = Spec.generate kind ~seed:8 ~tasks:50 () in
      Alcotest.(check bool) (Spec.name kind ^ " has sources") true (Dag.sources dag <> []))
    Spec.all

let test_cybershake_strict_mspg () =
  List.iter
    (fun n ->
      let dag = Spec.generate Spec.Cybershake ~seed:4 ~tasks:n () in
      if not (Recognize.is_mspg dag) then Alcotest.failf "cybershake %d not strict" n)
    sizes

let test_sipht_strict_mspg () =
  List.iter
    (fun n ->
      let dag = Spec.generate Spec.Sipht ~seed:4 ~tasks:n () in
      if not (Recognize.is_mspg dag) then Alcotest.failf "sipht %d not strict" n)
    sizes

let test_cybershake_data_intensive () =
  (* CyberShake must be the most data-heavy family per unit of
     compute: its base CCR at fixed bandwidth exceeds the others' *)
  let base_ccr kind =
    let dag = Spec.generate kind ~seed:4 ~tasks:300 () in
    Spec.ccr dag ~bandwidth:1e6
  in
  List.iter
    (fun kind ->
      if base_ccr Spec.Cybershake <= base_ccr kind then
        Alcotest.failf "cybershake not more data-intensive than %s" (Spec.name kind))
    [ Spec.Genome; Spec.Ligo; Spec.Sipht ]

let test_sipht_imbalanced_branches () =
  (* Findterm dominates: the heaviest task should be >10x the mean *)
  let dag = Spec.generate Spec.Sipht ~seed:4 ~tasks:300 () in
  let weights = Array.map (fun t -> t.Ckpt_dag.Task.weight) (Dag.tasks dag) in
  let mean = Array.fold_left ( +. ) 0. weights /. float_of_int (Array.length weights) in
  let heaviest = Array.fold_left Float.max 0. weights in
  Alcotest.(check bool) "imbalance" true (heaviest > 10. *. mean)

let test_paper_subset () =
  Alcotest.(check int) "three paper families" 3 (List.length Spec.paper);
  List.iter
    (fun k ->
      Alcotest.(check bool) "paper is a subset of all" true (List.mem k Spec.all))
    Spec.paper

let test_ccr_computation () =
  let dag = Spec.generate Spec.Genome ~seed:1 ~tasks:50 () in
  let bw = 1e6 in
  let expected = Dag.total_data dag /. bw /. Dag.total_weight dag in
  Alcotest.(check (float 1e-9)) "ccr" expected (Spec.ccr dag ~bandwidth:bw)

let test_of_name () =
  Alcotest.(check bool) "genome" true (Spec.of_name "GENOME" = Some Spec.Genome);
  Alcotest.(check bool) "epigenomics alias" true (Spec.of_name "epigenomics" = Some Spec.Genome);
  Alcotest.(check bool) "montage" true (Spec.of_name "montage" = Some Spec.Montage);
  Alcotest.(check bool) "inspiral alias" true (Spec.of_name "Inspiral" = Some Spec.Ligo);
  Alcotest.(check bool) "unknown" true (Spec.of_name "nope" = None)

let test_generator_rejects_tiny () =
  Alcotest.(check bool) "genome too small" true
    (match Ckpt_workflows.Genome.generate ~tasks:3 () with
    | exception Invalid_argument _ -> true
    | _ -> false)

let suite =
  [
    Alcotest.test_case "task counts near target" `Quick test_task_counts;
    Alcotest.test_case "acyclic" `Quick test_acyclic;
    Alcotest.test_case "deterministic per seed" `Quick test_deterministic_per_seed;
    Alcotest.test_case "seed changes instance" `Quick test_seed_changes_instance;
    Alcotest.test_case "positive weights/sizes" `Quick test_positive_weights_and_sizes;
    Alcotest.test_case "genome is strict M-SPG" `Quick test_genome_strict_mspg;
    Alcotest.test_case "all workflows completable" `Slow test_all_workflows_completable;
    Alcotest.test_case "montage needs completion" `Quick test_montage_needs_completion;
    Alcotest.test_case "ligo strict without crossings" `Quick test_ligo_strict_without_crossings;
    Alcotest.test_case "montage broadcast file" `Quick test_montage_has_shared_broadcast_file;
    Alcotest.test_case "initial inputs present" `Quick test_workflows_have_initial_inputs;
    Alcotest.test_case "sources exist" `Quick test_single_source_structurally;
    Alcotest.test_case "cybershake strict M-SPG" `Quick test_cybershake_strict_mspg;
    Alcotest.test_case "sipht strict M-SPG" `Quick test_sipht_strict_mspg;
    Alcotest.test_case "cybershake data-intensive" `Quick test_cybershake_data_intensive;
    Alcotest.test_case "sipht imbalanced" `Quick test_sipht_imbalanced_branches;
    Alcotest.test_case "paper subset" `Quick test_paper_subset;
    Alcotest.test_case "ccr computation" `Quick test_ccr_computation;
    Alcotest.test_case "kind of_name" `Quick test_of_name;
    Alcotest.test_case "rejects tiny workflows" `Quick test_generator_rejects_tiny;
  ]
