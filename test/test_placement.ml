(* Tests for Ckpt_core.Placement: R/W/C segment accounting (including
   the Figure 4 extended-checkpoint semantics and shared-file
   deduplication), the incremental cost matrix, and Algorithm 2
   optimality against brute force. *)

module Dag = Ckpt_dag.Dag
module Platform = Ckpt_platform.Platform
module Superchain = Ckpt_core.Superchain
module Placement = Ckpt_core.Placement
module Rng = Ckpt_prob.Rng

let check_close ?(eps = 1e-9) msg expected actual =
  if abs_float (expected -. actual) > eps *. (1. +. abs_float expected) then
    Alcotest.failf "%s: expected %g, got %g" msg expected actual

let unit_platform ?(lambda = 0.) () = Platform.make ~processors:1 ~lambda ~bandwidth:1.

(* Figure 4: chain-linearised M-SPG 1->2, 2->3, 2->4, 3->5, 4->5, 5->6
   with all six tasks on one processor (ids 0..5). *)
let fig4 () =
  let d = Dag.create ~name:"fig4" () in
  let t = Array.init 6 (fun i -> Dag.add_task d ~name:(Printf.sprintf "T%d" (i + 1)) ~weight:1.) in
  Dag.add_edge d t.(0) t.(1) 2.;
  (* T2 -> T3 and T2 -> T4 *)
  Dag.add_edge d t.(1) t.(2) 3.;
  Dag.add_edge d t.(1) t.(3) 4.;
  Dag.add_edge d t.(2) t.(4) 5.;
  Dag.add_edge d t.(3) t.(4) 6.;
  Dag.add_edge d t.(4) t.(5) 7.;
  (d, Superchain.make ~id:0 ~processor:0 ~order:[| 0; 1; 2; 3; 4; 5 |])

let test_whole_chain_segment () =
  let d, sc = fig4 () in
  let seg = Placement.segment_of (unit_platform ()) d sc ~first:0 ~last:5 in
  check_close "R: nothing external" 0. seg.Placement.read;
  check_close "W: all weights" 6. seg.Placement.work;
  check_close "C: nothing escapes" 0. seg.Placement.write

let test_figure4_segment_t3_t4 () =
  (* the paper's example: checkpoints after T2 and T4. Segment {T3,T4}
     reads T2's outputs for T3 (3) and for T4 (4); its checkpoint
     saves T3's output for T5 (5) AND T4's output for T5 (6) — the
     extended checkpoint includes the non-checkpointed T3 data. *)
  let d, sc = fig4 () in
  let seg = Placement.segment_of (unit_platform ()) d sc ~first:2 ~last:3 in
  check_close "R reads both T2 files" 7. seg.Placement.read;
  check_close "W" 2. seg.Placement.work;
  check_close "C saves T3->T5 and T4->T5" 11. seg.Placement.write

let test_figure4_segment_t5_t6 () =
  let d, sc = fig4 () in
  let seg = Placement.segment_of (unit_platform ()) d sc ~first:4 ~last:5 in
  check_close "R reads T3->T5 and T4->T5" 11. seg.Placement.read;
  check_close "C final" 0. seg.Placement.write

let test_single_task_segments () =
  let d, sc = fig4 () in
  (* per-task segment = CKPTALL accounting: T2 reads T1's file (2),
     writes both its outputs (3+4) *)
  let seg = Placement.segment_of (unit_platform ()) d sc ~first:1 ~last:1 in
  check_close "R" 2. seg.Placement.read;
  check_close "C" 7. seg.Placement.write

let test_shared_file_checkpointed_once () =
  (* one producer, one shared file consumed by two later tasks:
     the checkpoint saves it once (Section VI-A) *)
  let d = Dag.create () in
  let a = Dag.add_task d ~name:"a" ~weight:1. in
  let b = Dag.add_task d ~name:"b" ~weight:1. in
  let c = Dag.add_task d ~name:"c" ~weight:1. in
  let f = Dag.add_file d ~producer:a ~size:10. in
  Dag.add_edge d ~file:f a b 0.;
  Dag.add_edge d ~file:f a c 0.;
  let sc = Superchain.make ~id:0 ~processor:0 ~order:[| a; b; c |] in
  let seg = Placement.segment_of (unit_platform ()) d sc ~first:0 ~last:0 in
  check_close "shared file written once" 10. seg.Placement.write;
  (* and read once by a segment containing both consumers *)
  let seg_bc = Placement.segment_of (unit_platform ()) d sc ~first:1 ~last:2 in
  check_close "shared file read once" 10. seg_bc.Placement.read

let test_initial_inputs_in_read () =
  let d = Dag.create () in
  let a = Dag.add_task d ~name:"a" ~weight:1. in
  Dag.add_input d a 42.;
  let sc = Superchain.make ~id:0 ~processor:0 ~order:[| a |] in
  let seg = Placement.segment_of (unit_platform ()) d sc ~first:0 ~last:0 in
  check_close "initial input read" 42. seg.Placement.read

let test_cross_superchain_read_write () =
  (* producer in another superchain: the file enters R; consumer in
     another superchain: the file enters C *)
  let d = Dag.create () in
  let a = Dag.add_task d ~name:"a" ~weight:1. in
  let b = Dag.add_task d ~name:"b" ~weight:1. in
  let c = Dag.add_task d ~name:"c" ~weight:1. in
  Dag.add_edge d a b 5.;
  Dag.add_edge d b c 9.;
  let sc_b = Superchain.make ~id:1 ~processor:1 ~order:[| b |] in
  let seg = Placement.segment_of (unit_platform ()) d sc_b ~first:0 ~last:0 in
  check_close "reads from other chain" 5. seg.Placement.read;
  check_close "writes for other chain" 9. seg.Placement.write

let test_expected_time_eq2 () =
  let seg =
    { Placement.chain = 0; first = 0; last = 0; read = 1.; work = 2.; write = 3. }
  in
  let lambda = 0.01 in
  let s = 6. in
  check_close "Eq.2"
    (((1. -. (lambda *. s)) *. s) +. (lambda *. s *. 1.5 *. s))
    (Placement.expected_time ~lambda seg);
  (* clamped regime *)
  check_close "clamp at pfail=1" 9. (Placement.expected_time ~lambda:10. seg)

let test_cost_matrix_matches_direct () =
  let d, sc = fig4 () in
  Dag.add_input d 0 13.;
  let platform = unit_platform ~lambda:0.01 () in
  let matrix = Placement.cost_matrix platform d sc in
  for j = 0 to 5 do
    for i = 0 to j do
      let seg = Placement.segment_of platform d sc ~first:i ~last:j in
      check_close
        (Printf.sprintf "cost(%d,%d)" i j)
        (Placement.expected_time ~lambda:0.01 seg)
        matrix.(j).(i)
    done
  done

let random_superchain seed n =
  (* a random DAG linearised in id order, with inputs and shared files *)
  let rng = Rng.create seed in
  let d = Dag.create () in
  for i = 0 to n - 1 do
    ignore (Dag.add_task d ~name:(Printf.sprintf "t%d" i) ~weight:(0.5 +. Rng.float rng 4.))
  done;
  for u = 0 to n - 2 do
    (* one shared file per producer, consumed by a random subset *)
    let f = ref None in
    for v = u + 1 to n - 1 do
      if Rng.uniform rng < 0.35 then begin
        let file =
          match !f with
          | Some file -> file
          | None ->
              let file = Dag.add_file d ~producer:u ~size:(Rng.float rng 8.) in
              f := Some file;
              file
        in
        Dag.add_edge d ~file u v 0.
      end
    done;
    if Rng.uniform rng < 0.3 then Dag.add_input d u (Rng.float rng 5.)
  done;
  (d, Superchain.make ~id:0 ~processor:0 ~order:(Array.init n (fun i -> i)))

let test_cost_matrix_matches_direct_random () =
  for seed = 0 to 14 do
    let d, sc = random_superchain seed 12 in
    let platform = unit_platform ~lambda:0.02 () in
    let matrix = Placement.cost_matrix platform d sc in
    for j = 0 to 11 do
      for i = 0 to j do
        let seg = Placement.segment_of platform d sc ~first:i ~last:j in
        check_close ~eps:1e-9
          (Printf.sprintf "seed %d cost(%d,%d)" seed i j)
          (Placement.expected_time ~lambda:0.02 seg)
          matrix.(j).(i)
      done
    done
  done

let test_optimal_positions_match_brute_force () =
  for seed = 20 to 32 do
    let d, sc = random_superchain seed 9 in
    let platform = unit_platform ~lambda:0.05 () in
    let dp_value, dp_positions = Placement.optimal_positions platform d sc in
    let matrix = Placement.cost_matrix platform d sc in
    let bf_value, _ = Dp_oracle.brute_force ~n:9 ~cost:(fun i j -> matrix.(j).(i)) in
    check_close (Printf.sprintf "seed %d optimal" seed) bf_value dp_value;
    Alcotest.(check int) "last position checkpointed" 8 (List.rev dp_positions |> List.hd)
  done

let test_segments_of_positions () =
  let d, sc = fig4 () in
  let platform = unit_platform () in
  let segs = Placement.segments_of_positions platform d sc ~positions:[ 1; 3; 5 ] in
  Alcotest.(check int) "3 segments" 3 (List.length segs);
  let bounds = List.map (fun (s : Placement.segment) -> (s.Placement.first, s.Placement.last)) segs in
  Alcotest.(check (list (pair int int))) "bounds" [ (0, 1); (2, 3); (4, 5) ] bounds

let test_segments_require_final_position () =
  let d, sc = fig4 () in
  Alcotest.(check bool) "missing final rejected" true
    (match Placement.segments_of_positions (unit_platform ()) d sc ~positions:[ 2 ] with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_every_position () =
  let _, sc = fig4 () in
  Alcotest.(check (list int)) "all" [ 0; 1; 2; 3; 4; 5 ] (Placement.every_position sc)

let test_zero_lambda_checkpoints_sparse () =
  (* with no failures and positive checkpoint costs, a single segment
     (only the forced final checkpoint) is optimal *)
  let d, sc = fig4 () in
  let platform = unit_platform ~lambda:0. () in
  let _, positions = Placement.optimal_positions platform d sc in
  Alcotest.(check (list int)) "single segment" [ 5 ] positions

let test_high_lambda_checkpoints_dense () =
  let d, sc = fig4 () in
  let cheap = Platform.make ~processors:1 ~lambda:0.3 ~bandwidth:1e6 in
  let _, positions = Placement.optimal_positions cheap d sc in
  Alcotest.(check int) "checkpoint everywhere" 6 (List.length positions)

(* --- QCheck invariants on random superchains --- *)

let arb_superchain =
  QCheck.make
    ~print:(fun (seed, n) -> Printf.sprintf "seed=%d n=%d" seed n)
    QCheck.Gen.(pair (int_bound 10_000) (int_range 2 14))

let prop_segment_costs_nonnegative =
  QCheck.Test.make ~name:"segment R/W/C are non-negative" ~count:60 arb_superchain
    (fun (seed, n) ->
      let d, sc = random_superchain seed n in
      let platform = unit_platform ~lambda:0.01 () in
      let ok = ref true in
      for i = 0 to n - 1 do
        for j = i to n - 1 do
          let s = Placement.segment_of platform d sc ~first:i ~last:j in
          if s.Placement.read < 0. || s.Placement.work < 0. || s.Placement.write < 0. then
            ok := false
        done
      done;
      !ok)

let prop_segment_work_additive =
  QCheck.Test.make ~name:"adjacent segments' W adds up" ~count:60 arb_superchain
    (fun (seed, n) ->
      let d, sc = random_superchain seed n in
      let platform = unit_platform () in
      if n < 3 then true
      else begin
        let mid = n / 2 in
        let whole = Placement.segment_of platform d sc ~first:0 ~last:(n - 1) in
        let left = Placement.segment_of platform d sc ~first:0 ~last:(mid - 1) in
        let right = Placement.segment_of platform d sc ~first:mid ~last:(n - 1) in
        abs_float (whole.Placement.work -. (left.Placement.work +. right.Placement.work))
        < 1e-9
      end)

let prop_splitting_never_loses_data =
  (* cutting a segment in two can only move data through storage:
     the split's write+read costs at the boundary are at least the
     whole segment's (monotonicity of the extended checkpoint) *)
  QCheck.Test.make ~name:"splitting adds I/O, never removes it" ~count:60 arb_superchain
    (fun (seed, n) ->
      let d, sc = random_superchain seed n in
      let platform = unit_platform () in
      if n < 3 then true
      else begin
        let mid = n / 2 in
        let whole = Placement.segment_of platform d sc ~first:0 ~last:(n - 1) in
        let left = Placement.segment_of platform d sc ~first:0 ~last:(mid - 1) in
        let right = Placement.segment_of platform d sc ~first:mid ~last:(n - 1) in
        left.Placement.read +. left.Placement.write +. right.Placement.read
        +. right.Placement.write
        >= whole.Placement.read +. whole.Placement.write -. 1e-9
      end)

let prop_optimal_value_realised_by_positions =
  QCheck.Test.make ~name:"Algorithm 2 value matches its own positions" ~count:40
    arb_superchain (fun (seed, n) ->
      let d, sc = random_superchain seed n in
      let platform = unit_platform ~lambda:0.03 () in
      let value, positions = Placement.optimal_positions platform d sc in
      let lambda = 0.03 in
      let total =
        Placement.segments_of_positions platform d sc ~positions
        |> List.fold_left (fun acc s -> acc +. Placement.expected_time ~lambda s) 0.
      in
      abs_float (total -. value) < 1e-9 *. (1. +. value))

(* An arena keeps the superchain it last flattened: pricing the same
   superchain over another DAG of the same shape must re-flatten, and
   a DAG of another size is refused *)
let test_arena_follows_dag () =
  let d, sc = fig4 () in
  let arena = Placement.arena d in
  let platform = unit_platform () in
  let heavier = Dag.copy d in
  Dag.set_weight heavier 2 5.;
  Dag.scale_files heavier 2.;
  let seg dag = Placement.segment_of ~arena platform dag sc ~first:2 ~last:3 in
  let a = seg d and b = seg heavier and c = seg d in
  check_close "W over the first DAG" 2. a.Placement.work;
  check_close "W over the second DAG" 6. b.Placement.work;
  check_close "R over the second DAG" (2. *. a.Placement.read) b.Placement.read;
  check_close "W over the first DAG again" 2. c.Placement.work;
  let other, _ = fig4 () in
  ignore (Dag.add_task other ~name:"extra" ~weight:1.);
  Alcotest.check_raises "arena of another DAG"
    (Invalid_argument "Placement: arena built for another DAG") (fun () ->
      ignore (Placement.segment_of ~arena platform other sc ~first:0 ~last:0))

let suite =
  [
    Alcotest.test_case "whole chain" `Quick test_whole_chain_segment;
    Alcotest.test_case "Figure 4 segment T3-T4" `Quick test_figure4_segment_t3_t4;
    Alcotest.test_case "Figure 4 segment T5-T6" `Quick test_figure4_segment_t5_t6;
    Alcotest.test_case "single-task segments" `Quick test_single_task_segments;
    Alcotest.test_case "shared file once" `Quick test_shared_file_checkpointed_once;
    Alcotest.test_case "initial inputs in R" `Quick test_initial_inputs_in_read;
    Alcotest.test_case "cross-superchain R/C" `Quick test_cross_superchain_read_write;
    Alcotest.test_case "Eq.2 expected time" `Quick test_expected_time_eq2;
    Alcotest.test_case "cost matrix = direct (fig4)" `Quick test_cost_matrix_matches_direct;
    Alcotest.test_case "cost matrix = direct (random)" `Quick test_cost_matrix_matches_direct_random;
    Alcotest.test_case "Algorithm 2 optimal" `Quick test_optimal_positions_match_brute_force;
    Alcotest.test_case "segments of positions" `Quick test_segments_of_positions;
    Alcotest.test_case "final position required" `Quick test_segments_require_final_position;
    Alcotest.test_case "every position" `Quick test_every_position;
    Alcotest.test_case "lambda=0 sparse" `Quick test_zero_lambda_checkpoints_sparse;
    Alcotest.test_case "high lambda dense" `Quick test_high_lambda_checkpoints_dense;
    QCheck_alcotest.to_alcotest prop_segment_costs_nonnegative;
    QCheck_alcotest.to_alcotest prop_segment_work_additive;
    QCheck_alcotest.to_alcotest prop_splitting_never_loses_data;
    QCheck_alcotest.to_alcotest prop_optimal_value_realised_by_positions;
    Alcotest.test_case "arena follows the DAG" `Quick test_arena_follows_dag;
  ]
