(* Metamorphic laws of the paper's model: relations between the
   outputs of two related inputs, checked without knowing either
   output.

   Power-of-two scaling. Multiplying every task weight, file size and
   initial input by 2^k, at the same pfail and CCR, divides λ by 2^k
   (it is derived from the mean weight) and leaves the bandwidth
   unchanged (it is derived from the data/work ratio). Every failure
   probability λ·s is then the same float, and every duration, path
   length and mean is exactly 2^k times the original, since scaling by
   a power of two rounds nothing. So the expected makespans and W_par
   must scale by exactly 2^k, and the ratios and the checkpoint count
   must not move by a bit. *)

module Dag = Ckpt_dag.Dag
module Spec = Ckpt_workflows.Spec
module Pipeline = Ckpt_core.Pipeline
module Strategy = Ckpt_core.Strategy
module Evaluator = Ckpt_eval.Evaluator

let bits = Int64.bits_of_float

let scaled dag k =
  let d = Dag.copy dag in
  let factor = Float.ldexp 1. k in
  for t = 0 to Dag.n_tasks d - 1 do
    Dag.set_weight d t (Dag.weight d t *. factor)
  done;
  Dag.scale_files d factor;
  d

let cells =
  [
    (Spec.Genome, 50, 5);
    (Spec.Ligo, 300, 35);
    (Spec.Montage, 300, 18);
    (Spec.Genome, 300, 2);
    (Spec.Cybershake, 50, 5);
    (Spec.Sipht, 50, 5);
  ]

let knobs = [ (1e-3, 1e-2); (1e-2, 1.); (1e-4, 1e-3) ]
let methods = Evaluator.[ Pathapprox; Montecarlo { trials = 500; seed = 1 } ]

let test_power_of_two_scaling () =
  List.iter
    (fun (wf, tasks, processors) ->
      let dag = Spec.generate wf ~seed:1 ~tasks () in
      List.iter
        (fun k ->
          let big = scaled dag k in
          let factor = Float.ldexp 1. k in
          List.iter
            (fun (pfail, ccr) ->
              let prepare dag = Pipeline.prepare ~dag ~processors ~pfail ~ccr () in
              let base = prepare dag and other = prepare big in
              let cell =
                Printf.sprintf "%s n=%d p=%d k=%d pfail=%g ccr=%g" (Spec.name wf) tasks
                  processors k pfail ccr
              in
              let scales what a b =
                Alcotest.(check int64) (cell ^ ": " ^ what) (bits (a *. factor)) (bits b)
              in
              let wpar setup = (Pipeline.plan setup Strategy.Ckpt_none).Strategy.wpar in
              scales "wpar" (wpar base) (wpar other);
              List.iter
                (fun method_ ->
                  let a = Pipeline.compare_strategies ~method_ base
                  and b = Pipeline.compare_strategies ~method_ other in
                  let name what = Printf.sprintf "%s %s" what (Evaluator.name method_) in
                  scales (name "em_some") a.Pipeline.em_some b.Pipeline.em_some;
                  scales (name "em_all") a.Pipeline.em_all b.Pipeline.em_all;
                  scales (name "em_none") a.Pipeline.em_none b.Pipeline.em_none;
                  Alcotest.(check (list int64))
                    (cell ^ ": " ^ name "rel_all, rel_none")
                    [ bits a.Pipeline.rel_all; bits a.Pipeline.rel_none ]
                    [ bits b.Pipeline.rel_all; bits b.Pipeline.rel_none ];
                  Alcotest.(check int)
                    (cell ^ ": " ^ name "ckpts_some")
                    a.Pipeline.ckpts_some b.Pipeline.ckpts_some)
                methods)
            knobs)
        [ -3; 5 ])
    cells

let suite =
  [
    Alcotest.test_case "weights and files x 2^k scale EM and W_par by 2^k" `Quick
      test_power_of_two_scaling;
  ]
