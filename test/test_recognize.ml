(* Tests for Ckpt_mspg.Recognize: strict recognition on known and
   random M-SPGs, rejection of non-M-SPGs, and dummy-edge bipartite
   completion (paper footnote 2). *)

module Mspg = Ckpt_mspg.Mspg
module Recognize = Ckpt_mspg.Recognize
module Dag = Ckpt_dag.Dag
module Random_wf = Ckpt_workflows.Random_wf

let figure2 () =
  (* the 13-task example of Figure 2:
     T1 ; (T2||T3||T4) ; (T5..T9 bipartite) ; (T10||T11||T12) ; T13
     — built here as serial of parallels (complete bipartite blocks) *)
  Mspg.build ~name:"figure2"
    (Mspg.Bserial
       [ Mspg.Btask ("T1", 1.);
         Mspg.Bparallel [ Mspg.Btask ("T2", 1.); Mspg.Btask ("T3", 1.); Mspg.Btask ("T4", 1.) ];
         Mspg.Bparallel
           [ Mspg.Btask ("T5", 1.); Mspg.Btask ("T6", 1.); Mspg.Btask ("T7", 1.);
             Mspg.Btask ("T8", 1.); Mspg.Btask ("T9", 1.) ];
         Mspg.Bparallel
           [ Mspg.Btask ("T10", 1.); Mspg.Btask ("T11", 1.); Mspg.Btask ("T12", 1.) ];
         Mspg.Btask ("T13", 1.) ])

let test_recognizes_figure2 () =
  let m = figure2 () in
  match Recognize.of_dag m.Mspg.dag with
  | Error e -> Alcotest.failf "rejected Figure 2: %s" e
  | Ok m2 -> (
      match Mspg.validate m2 with
      | Ok 0 -> ()
      | Ok k -> Alcotest.failf "strict recognition left %d implied pairs missing" k
      | Error e -> Alcotest.failf "recognised tree invalid: %s" e)

let test_single_task () =
  let d = Dag.create () in
  ignore (Dag.add_task d ~name:"only" ~weight:1.);
  match Recognize.of_dag d with
  | Ok { Mspg.tree = Mspg.Leaf 0; _ } -> ()
  | Ok _ -> Alcotest.fail "expected a leaf"
  | Error e -> Alcotest.fail e

let test_independent_tasks_parallel () =
  let d = Dag.create () in
  for i = 0 to 3 do
    ignore (Dag.add_task d ~name:(string_of_int i) ~weight:1.)
  done;
  match Recognize.of_dag d with
  | Ok { Mspg.tree = Mspg.Parallel l; _ } -> Alcotest.(check int) "4 branches" 4 (List.length l)
  | Ok _ -> Alcotest.fail "expected parallel"
  | Error e -> Alcotest.fail e

let test_chain () =
  let d = Dag.create () in
  let ids = List.init 5 (fun i -> Dag.add_task d ~name:(string_of_int i) ~weight:1.) in
  let rec link = function
    | a :: (b :: _ as tl) ->
        Dag.add_edge d a b 1.;
        link tl
    | _ -> ()
  in
  link ids;
  match Recognize.of_dag d with
  | Ok { Mspg.tree = Mspg.Serial l; _ } -> Alcotest.(check int) "5 factors" 5 (List.length l)
  | Ok _ -> Alcotest.fail "expected serial chain"
  | Error e -> Alcotest.fail e

let incomplete_bipartite () =
  (* 2 sources, 2 targets, 3 of the 4 possible edges *)
  let d = Dag.create ~name:"incomplete" () in
  let a = Dag.add_task d ~name:"a" ~weight:1. in
  let b = Dag.add_task d ~name:"b" ~weight:1. in
  let c = Dag.add_task d ~name:"c" ~weight:1. in
  let e = Dag.add_task d ~name:"e" ~weight:1. in
  Dag.add_edge d a c 1.;
  Dag.add_edge d a e 1.;
  Dag.add_edge d b e 1.;
  d

let test_rejects_incomplete_bipartite () =
  match Recognize.of_dag (incomplete_bipartite ()) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "incomplete bipartite accepted as strict M-SPG"

let test_completion_fixes_incomplete_bipartite () =
  let d = incomplete_bipartite () in
  match Recognize.of_dag_completed d with
  | Error e -> Alcotest.failf "completion failed: %s" e
  | Ok (m, dummies) ->
      Alcotest.(check int) "one missing pair" 1 dummies;
      (* the tree implies the 3 edges and exactly one more pair *)
      (match Mspg.validate m with
      | Ok k -> Alcotest.(check int) "validate reports the missing pair" 1 k
      | Error e -> Alcotest.failf "completed tree invalid: %s" e);
      (* the dummy stays implicit: the input backs the M-SPG, unchanged *)
      Alcotest.(check bool) "backed by the input DAG" true (m.Mspg.dag == d);
      Alcotest.(check int) "original untouched" 3 (Dag.n_edges d)

let test_completion_dummy_files_are_empty () =
  let d = incomplete_bipartite () in
  match Recognize.of_dag_completed d with
  | Error e -> Alcotest.fail e
  | Ok (m, _) ->
      (* no dummy file exists at all: the M-SPG reads the input's files *)
      Alcotest.(check int) "no file added" 3 (Dag.n_files m.Mspg.dag);
      Alcotest.(check (float 0.)) "no data added" 3. (Dag.total_data m.Mspg.dag)

let test_completion_noop_on_mspg () =
  let m = figure2 () in
  match Recognize.of_dag_completed m.Mspg.dag with
  | Ok (_, dummies) -> Alcotest.(check int) "no dummies needed" 0 dummies
  | Error e -> Alcotest.fail e

let test_is_mspg () =
  Alcotest.(check bool) "figure2" true (Recognize.is_mspg (figure2 ()).Mspg.dag);
  Alcotest.(check bool) "incomplete" false (Recognize.is_mspg (incomplete_bipartite ()))

let test_rejects_skip_level () =
  (* a -> b -> c plus a -> c: the transitive edge breaks strictness,
     and no level cut can complete it *)
  let d = Dag.create () in
  let a = Dag.add_task d ~name:"a" ~weight:1. in
  let b = Dag.add_task d ~name:"b" ~weight:1. in
  let c = Dag.add_task d ~name:"c" ~weight:1. in
  Dag.add_edge d a b 1.;
  Dag.add_edge d b c 1.;
  Dag.add_edge d a c 1.;
  (match Recognize.of_dag d with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "triangle accepted");
  match Recognize.of_dag_completed d with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "triangle completed"

let test_recognizer_minimal_cut_order () =
  (* A;B;C must decompose with factors in order, not nested weirdly *)
  let m =
    Mspg.build
      (Mspg.Bserial
         [ Mspg.Bparallel [ Mspg.Btask ("a1", 1.); Mspg.Btask ("a2", 1.) ];
           Mspg.Bparallel [ Mspg.Btask ("b1", 1.); Mspg.Btask ("b2", 1.) ];
           Mspg.Btask ("c", 1.) ])
  in
  match Recognize.of_dag m.Mspg.dag with
  | Error e -> Alcotest.fail e
  | Ok m2 -> (
      match m2.Mspg.tree with
      | Mspg.Serial [ Mspg.Parallel _; Mspg.Parallel _; Mspg.Leaf _ ] -> ()
      | t -> Alcotest.failf "unexpected shape %s" (Format.asprintf "%a" Mspg.pp_tree t))

(* --- GSPG (future-work extension) --- *)

let triangle () =
  let d = Dag.create ~name:"triangle" () in
  let a = Dag.add_task d ~name:"a" ~weight:1. in
  let b = Dag.add_task d ~name:"b" ~weight:2. in
  let c = Dag.add_task d ~name:"c" ~weight:3. in
  Dag.add_edge d a b 1.;
  Dag.add_edge d b c 1.;
  Dag.add_edge d a c 5.;
  d

let test_gspg_accepts_triangle () =
  let d = triangle () in
  match Recognize.of_dag_gspg d with
  | Error e -> Alcotest.failf "triangle is a GSPG: %s" e
  | Ok (m, transitive) ->
      Alcotest.(check int) "one transitive edge" 1 transitive;
      (* the tree is a 3-chain over the ORIGINAL dag *)
      (match m.Mspg.tree with
      | Mspg.Serial [ Mspg.Leaf 0; Mspg.Leaf 1; Mspg.Leaf 2 ] -> ()
      | t -> Alcotest.failf "unexpected tree %s" (Format.asprintf "%a" Mspg.pp_tree t));
      Alcotest.(check bool) "backed by original dag" true (m.Mspg.dag == d)

let test_gspg_equals_strict_on_mspg () =
  let m = figure2 () in
  match Recognize.of_dag_gspg m.Mspg.dag with
  | Ok (_, transitive) -> Alcotest.(check int) "no transitive edges" 0 transitive
  | Error e -> Alcotest.fail e

let test_gspg_rejects_incomplete_bipartite () =
  (* reduction does not help an incomplete bipartite block *)
  Alcotest.(check bool) "still rejected" true
    (Result.is_error (Recognize.of_dag_gspg (incomplete_bipartite ())))

let test_gspg_pipeline_end_to_end () =
  (* the pipeline accepts a GSPG and checkpoints cover the transitive
     data edge: the a->c file must be read by c's segment *)
  let d = triangle () in
  let setup = Ckpt_core.Pipeline.prepare ~dag:d ~processors:1 ~pfail:0.01 ~ccr:0.5 () in
  let plan = Ckpt_core.Pipeline.plan setup Ckpt_core.Strategy.Ckpt_all in
  let em = Ckpt_core.Strategy.expected_makespan plan in
  Alcotest.(check bool) "positive makespan" true (em > 0.);
  (* with CKPTALL, task c's segment reads both the b->c and a->c files *)
  let seg = plan.Ckpt_core.Strategy.segments.(2) in
  let bandwidth = setup.Ckpt_core.Pipeline.platform.Ckpt_platform.Platform.bandwidth in
  let expected_read = 6. /. bandwidth in
  if abs_float (seg.Ckpt_core.Placement.read -. expected_read) > 1e-9 then
    Alcotest.failf "transitive file not read: %g vs %g" seg.Ckpt_core.Placement.read
      expected_read

(* --- QCheck round-trip: build random M-SPG, strip tree, recognise --- *)

let trees_equivalent t1 t2 =
  (* same task multiset and same implied edge sets *)
  List.sort compare (Mspg.tree_tasks t1) = List.sort compare (Mspg.tree_tasks t2)
  && List.sort_uniq compare (Mspg.implied_edges t1)
     = List.sort_uniq compare (Mspg.implied_edges t2)

let prop_roundtrip =
  QCheck.Test.make ~name:"random M-SPG round-trips through recognition" ~count:100
    QCheck.small_nat (fun seed ->
      let m = Random_wf.generate ~seed ~max_tasks:35 () in
      match Recognize.of_dag m.Mspg.dag with
      | Error _ -> false
      | Ok m2 -> trees_equivalent m.Mspg.tree m2.Mspg.tree && Mspg.validate m2 = Ok 0)

let prop_completion_preserves_edges =
  QCheck.Test.make ~name:"completion only adds edges" ~count:50 QCheck.small_nat
    (fun seed ->
      let m = Random_wf.generate ~seed ~max_tasks:35 () in
      match Recognize.of_dag_completed m.Mspg.dag with
      | Error _ -> false
      | Ok (m2, dummies) ->
          dummies = 0 && Dag.n_edges m2.Mspg.dag = Dag.n_edges m.Mspg.dag)

let suite =
  [
    Alcotest.test_case "Figure 2 recognised" `Quick test_recognizes_figure2;
    Alcotest.test_case "single task" `Quick test_single_task;
    Alcotest.test_case "independent tasks" `Quick test_independent_tasks_parallel;
    Alcotest.test_case "chain" `Quick test_chain;
    Alcotest.test_case "rejects incomplete bipartite" `Quick test_rejects_incomplete_bipartite;
    Alcotest.test_case "completion fixes bipartite" `Quick test_completion_fixes_incomplete_bipartite;
    Alcotest.test_case "dummy files are empty" `Quick test_completion_dummy_files_are_empty;
    Alcotest.test_case "completion no-op on M-SPG" `Quick test_completion_noop_on_mspg;
    Alcotest.test_case "is_mspg" `Quick test_is_mspg;
    Alcotest.test_case "rejects skip-level triangle" `Quick test_rejects_skip_level;
    Alcotest.test_case "serial factor order" `Quick test_recognizer_minimal_cut_order;
    Alcotest.test_case "GSPG triangle" `Quick test_gspg_accepts_triangle;
    Alcotest.test_case "GSPG = strict on M-SPG" `Quick test_gspg_equals_strict_on_mspg;
    Alcotest.test_case "GSPG rejects bipartite" `Quick test_gspg_rejects_incomplete_bipartite;
    Alcotest.test_case "GSPG pipeline" `Quick test_gspg_pipeline_end_to_end;
    QCheck_alcotest.to_alcotest prop_roundtrip;
    QCheck_alcotest.to_alcotest prop_completion_preserves_edges;
  ]
