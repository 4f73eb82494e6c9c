(* Tests for Ckpt_dag.Dag: construction invariants, graph algorithms
   on known instances, and QCheck properties on random DAGs. *)

module Dag = Ckpt_dag.Dag
module Task = Ckpt_dag.Task
module Rng = Ckpt_prob.Rng

let diamond () =
  (*   0 -> 1 -> 3
       0 -> 2 -> 3   with weights 1,2,3,4 *)
  let d = Dag.create ~name:"diamond" () in
  let a = Dag.add_task d ~name:"a" ~weight:1. in
  let b = Dag.add_task d ~name:"b" ~weight:2. in
  let c = Dag.add_task d ~name:"c" ~weight:3. in
  let e = Dag.add_task d ~name:"d" ~weight:4. in
  Dag.add_edge d a b 10.;
  Dag.add_edge d a c 20.;
  Dag.add_edge d b e 30.;
  Dag.add_edge d c e 40.;
  d

let test_task_accessors () =
  let d = diamond () in
  Alcotest.(check int) "n_tasks" 4 (Dag.n_tasks d);
  Alcotest.(check int) "n_edges" 4 (Dag.n_edges d);
  Alcotest.(check string) "name" "b" (Dag.task d 1).Task.name;
  Alcotest.(check (float 0.)) "weight" 3. (Dag.weight d 2);
  Alcotest.(check (float 0.)) "total weight" 10. (Dag.total_weight d)

let test_task_make_rejects_negative () =
  Alcotest.check_raises "negative weight" (Invalid_argument "Task.make: negative weight")
    (fun () -> ignore (Task.make ~id:0 ~name:"x" ~weight:(-1.)))

let test_edges_and_files () =
  let d = diamond () in
  Alcotest.(check (list int)) "succs of 0" [ 1; 2 ] (Dag.succ_ids d 0);
  Alcotest.(check (list int)) "preds of 3" [ 1; 2 ] (Dag.pred_ids d 3);
  Alcotest.(check bool) "has_edge" true (Dag.has_edge d 0 1);
  Alcotest.(check bool) "no reverse edge" false (Dag.has_edge d 1 0);
  Alcotest.(check (float 0.)) "total data" 100. (Dag.total_data d)

let test_shared_file () =
  let d = Dag.create () in
  let a = Dag.add_task d ~name:"a" ~weight:1. in
  let b = Dag.add_task d ~name:"b" ~weight:1. in
  let c = Dag.add_task d ~name:"c" ~weight:1. in
  let f = Dag.add_file d ~producer:a ~size:5. in
  Dag.add_edge d ~file:f a b 0.;
  Dag.add_edge d ~file:f a c 0.;
  (* the shared file is counted once in the data volume *)
  Alcotest.(check (float 0.)) "shared file counted once" 5. (Dag.total_data d);
  match (Dag.succs d a : (Task.id * Dag.file) list) with
  | [ (_, f1); (_, f2) ] ->
      Alcotest.(check int) "same file on both edges" f1.Dag.file_id f2.Dag.file_id
  | _ -> Alcotest.fail "expected two edges"

let test_add_edge_rejections () =
  let d = diamond () in
  Alcotest.check_raises "self-loop" (Invalid_argument "Dag.add_edge: self-loop") (fun () ->
      Dag.add_edge d 1 1 1.);
  Alcotest.check_raises "duplicate" (Invalid_argument "Dag.add_edge: duplicate edge 0->1")
    (fun () -> Dag.add_edge d 0 1 1.);
  Alcotest.check_raises "producer mismatch"
    (Invalid_argument "Dag.add_edge: file producer mismatch") (fun () ->
      let f = Dag.add_file d ~producer:1 ~size:1. in
      Dag.add_edge d ~file:f 0 3 0.)

let test_inputs () =
  let d = diamond () in
  Dag.add_input d 0 7.;
  Dag.add_input d 0 3.;
  Alcotest.(check (list (float 0.))) "input sizes" [ 3.; 7. ] (Dag.inputs d 0);
  Alcotest.(check (float 0.)) "inputs in total data" 110. (Dag.total_data d);
  Dag.scale_files d 0.5;
  Alcotest.(check (float 1e-9)) "inputs scaled too" 55. (Dag.total_data d)

let test_sources_sinks () =
  let d = diamond () in
  Alcotest.(check (list int)) "sources" [ 0 ] (Dag.sources d);
  Alcotest.(check (list int)) "sinks" [ 3 ] (Dag.sinks d)

let test_topological_sort_deterministic () =
  let d = diamond () in
  let order = Dag.topological_sort d in
  Alcotest.(check (array int)) "id-ordered Kahn" [| 0; 1; 2; 3 |] order

let is_topological d order =
  let pos = Array.make (Dag.n_tasks d) (-1) in
  Array.iteri (fun k v -> pos.(v) <- k) order;
  let ok = ref true in
  for u = 0 to Dag.n_tasks d - 1 do
    List.iter (fun v -> if pos.(u) >= pos.(v) then ok := false) (Dag.succ_ids d u)
  done;
  !ok

let test_random_topological_sort_valid () =
  let d = diamond () in
  let rng = Rng.create 5 in
  for _ = 1 to 50 do
    let order = Dag.topological_sort ~rng d in
    Alcotest.(check bool) "valid order" true (is_topological d order)
  done

let test_random_topological_sort_varies () =
  let d = diamond () in
  let rng = Rng.create 5 in
  let seen = Hashtbl.create 4 in
  for _ = 1 to 50 do
    Hashtbl.replace seen (Array.to_list (Dag.topological_sort ~rng d)) ()
  done;
  (* the diamond has exactly two topological orders *)
  Alcotest.(check int) "both orders seen" 2 (Hashtbl.length seen)

let test_cycle_detection () =
  let d = Dag.create () in
  let a = Dag.add_task d ~name:"a" ~weight:1. in
  let b = Dag.add_task d ~name:"b" ~weight:1. in
  Dag.add_edge d a b 1.;
  Dag.check_acyclic d;
  (* no way to add a cycle through the public API other than reversed
     edge between existing nodes *)
  Dag.add_edge d b a 1.;
  Alcotest.check_raises "cycle found" (Invalid_argument "Dag.topological_sort: dag has a cycle")
    (fun () -> Dag.check_acyclic d)

(* --- validate --- *)

let test_validate_ok () =
  match Dag.validate (diamond ()) with
  | Ok () -> ()
  | Error vs ->
      Alcotest.failf "spurious violations: %s"
        (String.concat "; " (List.map Dag.violation_to_string vs))

let test_validate_detects_cycle () =
  let d = Dag.create () in
  let a = Dag.add_task d ~name:"a" ~weight:1. in
  let b = Dag.add_task d ~name:"b" ~weight:1. in
  Dag.add_edge d a b 1.;
  Dag.add_edge d b a 1.;
  (match Dag.validate d with
  | Ok () -> Alcotest.fail "cycle not detected"
  | Error [ Dag.Cycle ids ] -> Alcotest.(check (list int)) "trapped tasks" [ a; b ] ids
  | Error vs ->
      Alcotest.failf "unexpected violations: %s"
        (String.concat "; " (List.map Dag.violation_to_string vs)))

let test_validate_detects_bad_weight () =
  (* the builder guard rejects negatives outright, but NaN slips through
     every `< 0.` comparison — only validate can catch it *)
  let d = diamond () in
  Dag.set_weight d 1 nan;
  Dag.set_weight d 2 nan;
  match Dag.validate d with
  | Ok () -> Alcotest.fail "bad weights not detected"
  | Error vs ->
      let weights =
        List.filter_map (function Dag.Bad_weight (id, _) -> Some id | _ -> None) vs
      in
      Alcotest.(check (list int)) "both flagged" [ 1; 2 ] weights;
      List.iter
        (fun v -> Alcotest.(check bool) "message renders" true (Dag.violation_to_string v <> ""))
        vs

let test_validate_detects_bad_file_size () =
  let d = Dag.create () in
  let a = Dag.add_task d ~name:"a" ~weight:1. in
  let b = Dag.add_task d ~name:"b" ~weight:1. in
  Dag.add_edge d a b 1.;
  (* corrupt the file size through scaling with a NaN factor-free path:
     scale_files rejects negatives, so smuggle NaN via 0 * inf *)
  Dag.scale_files d infinity;
  Dag.scale_files d 0.;
  match Dag.validate d with
  | Ok () -> Alcotest.fail "NaN file size not detected"
  | Error vs ->
      Alcotest.(check bool) "bad file size flagged" true
        (List.exists (function Dag.Bad_file_size _ -> true | _ -> false) vs)

let test_longest_path () =
  let d = diamond () in
  (* longest path 0 -> 2 -> 3 = 1 + 3 + 4 *)
  Alcotest.(check (float 1e-9)) "longest path" 8. (Dag.longest_path d);
  Alcotest.(check (float 1e-9)) "hop count" 3. (Dag.longest_path ~weight:(fun _ -> 1.) d)

let test_critical_path () =
  let d = diamond () in
  Alcotest.(check (list int)) "critical path" [ 0; 2; 3 ] (Dag.critical_path d)

let test_levels () =
  let d = diamond () in
  Alcotest.(check (array int)) "levels" [| 0; 1; 1; 2 |] (Dag.levels d)

let test_transitive_closure () =
  let d = diamond () in
  let reach = Dag.transitive_closure d in
  Alcotest.(check bool) "0 reaches 3" true reach.(0).(3);
  Alcotest.(check bool) "1 not reach 2" false reach.(1).(2);
  Alcotest.(check bool) "no self reach" false reach.(0).(0)

let test_transitive_reduction () =
  let d = diamond () in
  Dag.add_edge d 0 3 5.;
  (* 0->3 is transitive, should disappear *)
  let edges = List.sort compare (Dag.transitive_reduction_edges d) in
  Alcotest.(check (list (pair int int)))
    "reduction drops 0->3"
    [ (0, 1); (0, 2); (1, 3); (2, 3) ]
    edges

let test_copy_isolated () =
  let d = diamond () in
  let d2 = Dag.copy d in
  Dag.add_edge d2 0 3 99.;
  Dag.set_weight d2 0 100.;
  Alcotest.(check int) "original edges" 4 (Dag.n_edges d);
  Alcotest.(check int) "copy edges" 5 (Dag.n_edges d2);
  Alcotest.(check (float 0.)) "original weight" 1. (Dag.weight d 0)

let test_induced () =
  let d = diamond () in
  let sub, mapping = Dag.induced d [ 0; 1; 3 ] in
  Alcotest.(check int) "3 tasks" 3 (Dag.n_tasks sub);
  Alcotest.(check int) "2 internal edges" 2 (Dag.n_edges sub);
  Alcotest.(check (array int)) "mapping" [| 0; 1; 3 |] mapping

let test_scale_files () =
  let d = diamond () in
  Dag.scale_files d 0.1;
  Alcotest.(check (float 1e-9)) "scaled" 10. (Dag.total_data d)

let contains_substring haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec scan i = i + nn <= nh && (String.sub haystack i nn = needle || scan (i + 1)) in
  scan 0

let test_to_dot_contains_nodes () =
  let dot = Dag.to_dot (diamond ()) in
  Alcotest.(check bool) "mentions edge" true (contains_substring dot "n0 -> n1");
  Alcotest.(check bool) "mentions node label" true (contains_substring dot "a#0")

(* --- QCheck: random DAG properties --- *)

let random_dag seed n =
  let rng = Rng.create seed in
  let d = Dag.create ~name:"random" () in
  for i = 0 to n - 1 do
    ignore (Dag.add_task d ~name:(Printf.sprintf "t%d" i) ~weight:(1. +. Rng.float rng 9.))
  done;
  for u = 0 to n - 2 do
    for v = u + 1 to n - 1 do
      if Rng.uniform rng < 0.2 then Dag.add_edge d u v (Rng.float rng 100.)
    done
  done;
  d

(* --- induced subgraphs against the edge-by-edge reference --- *)

(* The edge-by-edge builder [Dag.induced] once was: the kept tasks in
   id order, then every internal edge re-inserted through [add_edge],
   producers in id order and each producer's out-edges in row order,
   a file recreated at its first kept edge *)
let reference_induced d ids =
  let ids = List.sort_uniq compare ids in
  let old_of_new = Array.of_list ids in
  let new_of_old = Array.make (Dag.n_tasks d) (-1) in
  Array.iteri (fun nid oid -> new_of_old.(oid) <- nid) old_of_new;
  let sub = Dag.create ~name:(Dag.name d ^ "/induced") () in
  Array.iter
    (fun oid ->
      let info = Dag.task d oid in
      ignore (Dag.add_task sub ~name:info.Task.name ~weight:info.Task.weight))
    old_of_new;
  let file_map = Array.make (Dag.n_files d) (-1) in
  Array.iter
    (fun oid ->
      let nsrc = new_of_old.(oid) in
      List.iter
        (fun (odst, (f : Dag.file)) ->
          let ndst = new_of_old.(odst) in
          if ndst >= 0 then begin
            let fid = f.Dag.file_id in
            if file_map.(fid) < 0 then
              file_map.(fid) <- Dag.add_file sub ~producer:nsrc ~size:f.Dag.size;
            Dag.add_edge sub ~file:file_map.(fid) nsrc ndst 0.
          end)
        (Dag.succs d oid))
    old_of_new;
  (sub, old_of_new)

(* A random DAG whose producers share named files among consumers and
   send several files to one consumer (parallel edges), with edges
   added in shuffled order and some files never read *)
let random_file_dag seed n =
  let rng = Rng.create seed in
  let d = Dag.create ~name:"files" () in
  for i = 0 to n - 1 do
    ignore (Dag.add_task d ~name:(Printf.sprintf "t%d" i) ~weight:(1. +. Rng.float rng 9.))
  done;
  let named =
    Array.init n (fun u ->
        Array.init (Rng.int rng 4) (fun _ -> Dag.add_file d ~producer:u ~size:(Rng.float rng 50.)))
  in
  let pairs = ref [] in
  for u = 0 to n - 2 do
    for v = u + 1 to n - 1 do
      if Rng.uniform rng < 0.25 then pairs := (u, v) :: !pairs
    done
  done;
  let pairs = Array.of_list !pairs in
  Rng.shuffle rng pairs;
  Array.iter
    (fun (u, v) ->
      let files = named.(u) in
      let k = Array.length files in
      if k = 0 || Rng.bool rng then Dag.add_edge d u v (Rng.float rng 50.)
      else begin
        let first = Rng.int rng k in
        for j = 0 to Rng.int rng k do
          Dag.add_edge d ~file:files.((first + j) mod k) u v 0.
        done
      end)
    pairs;
  d

let same_dag a b =
  let rows d = List.init (Dag.n_tasks d) (fun t -> (Dag.succs d t, Dag.preds d t, Dag.inputs d t)) in
  Dag.name a = Dag.name b
  && Dag.n_tasks a = Dag.n_tasks b
  && Dag.n_edges a = Dag.n_edges b
  && Dag.tasks a = Dag.tasks b
  && Dag.files a = Dag.files b
  && rows a = rows b

let prop_induced_matches_reference =
  QCheck.Test.make ~name:"induced = edge-by-edge reference (shared files, parallel edges)"
    ~count:150
    QCheck.(pair small_nat (int_range 1 30))
    (fun (seed, n) ->
      let d = random_file_dag seed n in
      let rng = Rng.create (seed + 7919) in
      (* an unsorted id list with a repeat, as callers may pass *)
      let ids = List.filter (fun _ -> Rng.uniform rng < 0.6) (List.init n Fun.id) in
      let ids = Array.of_list (match ids with [] -> [] | hd :: _ -> hd :: ids) in
      Rng.shuffle rng ids;
      let ids = Array.to_list ids in
      let sub, map = Dag.induced d ids in
      let ref_sub, ref_map = reference_induced d ids in
      (* both stay growable builders *)
      let grow g =
        let t = Dag.add_task g ~name:"extra" ~weight:1. in
        if t > 0 then Dag.add_edge g 0 t 3.;
        Dag.add_input g t 2.
      in
      let same_now = same_dag sub ref_sub in
      grow sub;
      grow ref_sub;
      map = ref_map && same_now && same_dag sub ref_sub)

let prop_topo_valid =
  QCheck.Test.make ~name:"random DAG topological sort is valid" ~count:50
    QCheck.(pair small_nat (int_range 1 30))
    (fun (seed, n) ->
      let d = random_dag seed n in
      is_topological d (Dag.topological_sort d))

let prop_longest_path_bounds =
  QCheck.Test.make ~name:"max weight <= longest path <= total weight" ~count:50
    QCheck.(pair small_nat (int_range 1 30))
    (fun (seed, n) ->
      let d = random_dag seed n in
      let lp = Dag.longest_path d in
      let maxw = Array.fold_left (fun acc t -> Float.max acc t.Task.weight) 0. (Dag.tasks d) in
      lp >= maxw -. 1e-9 && lp <= Dag.total_weight d +. 1e-9)

let prop_reduction_preserves_reachability =
  QCheck.Test.make ~name:"transitive reduction preserves reachability" ~count:30
    QCheck.(pair small_nat (int_range 2 15))
    (fun (seed, n) ->
      let d = random_dag seed n in
      let reach = Dag.transitive_closure d in
      (* rebuild a DAG from the reduced edges *)
      let r = Dag.create () in
      for _ = 0 to n - 1 do
        ignore (Dag.add_task r ~name:"x" ~weight:1.)
      done;
      List.iter (fun (u, v) -> Dag.add_edge r u v 1.) (Dag.transitive_reduction_edges d);
      let reach' = Dag.transitive_closure r in
      let ok = ref true in
      for u = 0 to n - 1 do
        for v = 0 to n - 1 do
          if reach.(u).(v) <> reach'.(u).(v) then ok := false
        done
      done;
      !ok)

let prop_critical_path_sums_to_longest =
  QCheck.Test.make ~name:"critical path weights sum to longest path" ~count:50
    QCheck.(pair small_nat (int_range 1 25))
    (fun (seed, n) ->
      let d = random_dag seed n in
      let path = Dag.critical_path d in
      let total = List.fold_left (fun acc t -> acc +. Dag.weight d t) 0. path in
      abs_float (total -. Dag.longest_path d) < 1e-9)

let suite =
  [
    Alcotest.test_case "task accessors" `Quick test_task_accessors;
    Alcotest.test_case "task rejects negative weight" `Quick test_task_make_rejects_negative;
    Alcotest.test_case "edges and files" `Quick test_edges_and_files;
    Alcotest.test_case "shared files" `Quick test_shared_file;
    Alcotest.test_case "add_edge rejections" `Quick test_add_edge_rejections;
    Alcotest.test_case "initial inputs" `Quick test_inputs;
    Alcotest.test_case "sources/sinks" `Quick test_sources_sinks;
    Alcotest.test_case "deterministic topo sort" `Quick test_topological_sort_deterministic;
    Alcotest.test_case "random topo sort valid" `Quick test_random_topological_sort_valid;
    Alcotest.test_case "random topo sort varies" `Quick test_random_topological_sort_varies;
    Alcotest.test_case "cycle detection" `Quick test_cycle_detection;
    Alcotest.test_case "validate ok" `Quick test_validate_ok;
    Alcotest.test_case "validate detects cycle" `Quick test_validate_detects_cycle;
    Alcotest.test_case "validate detects bad weight" `Quick test_validate_detects_bad_weight;
    Alcotest.test_case "validate detects bad file size" `Quick
      test_validate_detects_bad_file_size;
    Alcotest.test_case "longest path" `Quick test_longest_path;
    Alcotest.test_case "critical path" `Quick test_critical_path;
    Alcotest.test_case "levels" `Quick test_levels;
    Alcotest.test_case "transitive closure" `Quick test_transitive_closure;
    Alcotest.test_case "transitive reduction" `Quick test_transitive_reduction;
    Alcotest.test_case "copy isolation" `Quick test_copy_isolated;
    Alcotest.test_case "induced subgraph" `Quick test_induced;
    Alcotest.test_case "scale files" `Quick test_scale_files;
    Alcotest.test_case "dot output" `Quick test_to_dot_contains_nodes;
    QCheck_alcotest.to_alcotest prop_topo_valid;
    QCheck_alcotest.to_alcotest prop_longest_path_bounds;
    QCheck_alcotest.to_alcotest prop_reduction_preserves_reachability;
    QCheck_alcotest.to_alcotest prop_critical_path_sums_to_longest;
    QCheck_alcotest.to_alcotest prop_induced_matches_reference;
  ]
