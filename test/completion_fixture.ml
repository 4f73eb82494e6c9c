(* Shared fixtures for the bipartite-completion tests, and the oracle
   that materialises a completion. *)

module Dag = Ckpt_dag.Dag
module Mspg = Ckpt_mspg.Mspg

(* Two incomplete 3x3 bipartite blocks side by side. Recognition
   completes each with 3 dummy dependencies, giving the tree
   ((1 || 2 || 4) ; (0 || 3 || 5)) || ((7 || 8 || 10) ; (6 || 9 || 11)).
   Both blocks land in one superchain at p = 1, so a linearisation of
   that superchain must respect the completed cuts: over the raw edges
   alone the smallest-id order would run 0 before 4. *)
let side_by_side () =
  let d = Dag.create ~name:"side-by-side" () in
  for i = 0 to 11 do
    ignore (Dag.add_task d ~name:(Printf.sprintf "t%d" i) ~weight:(1. +. float_of_int i))
  done;
  List.iter
    (fun off ->
      List.iter
        (fun (u, v) ->
          Dag.add_edge d (u + off) (v + off) (float_of_int (1 + u + (2 * v) + off)))
        [ (1, 0); (2, 0); (1, 3); (4, 3); (2, 5); (4, 5) ])
    [ 0; 6 ];
  d

(* The completion made explicit, as recognition once built it: a copy
   of the M-SPG's DAG with a zero-size edge for every pair the tree
   implies and the DAG lacks. *)
let materialise (m : Mspg.t) =
  let d = Dag.copy m.Mspg.dag in
  List.iter
    (fun (u, v) -> if not (Dag.has_edge d u v) then Dag.add_edge d u v 0.)
    (List.sort_uniq compare (Mspg.implied_edges m.Mspg.tree));
  d
