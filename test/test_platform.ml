(* Tests for Ckpt_platform: platform arithmetic and failure traces. *)

module Platform = Ckpt_platform.Platform
module Failure = Ckpt_platform.Failure
module Rng = Ckpt_prob.Rng

let check_close ?(eps = 1e-9) msg expected actual =
  if abs_float (expected -. actual) > eps *. (1. +. abs_float expected) then
    Alcotest.failf "%s: expected %g, got %g" msg expected actual

let test_make_validation () =
  Alcotest.check_raises "no processors"
    (Invalid_argument "Platform.make: need at least one processor") (fun () ->
      ignore (Platform.make ~processors:0 ~lambda:0.1 ~bandwidth:1.));
  Alcotest.check_raises "negative lambda"
    (Invalid_argument "Platform.make: negative failure rate") (fun () ->
      ignore (Platform.make ~processors:1 ~lambda:(-0.1) ~bandwidth:1.));
  Alcotest.check_raises "zero bandwidth"
    (Invalid_argument "Platform.make: non-positive bandwidth") (fun () ->
      ignore (Platform.make ~processors:1 ~lambda:0.1 ~bandwidth:0.))

(* NaN compares false with everything, so a guard written [x < 0.]
   lets it through; every knob must reject it *)
let test_nan_rejected () =
  let rejects msg f =
    Alcotest.(check bool) msg true
      (match f () with exception Invalid_argument _ -> true | _ -> false)
  in
  rejects "make: NaN lambda" (fun () -> Platform.make ~processors:1 ~lambda:nan ~bandwidth:1.);
  rejects "make: NaN bandwidth" (fun () ->
      Platform.make ~processors:1 ~lambda:0.1 ~bandwidth:nan);
  rejects "heterogeneous: NaN rate" (fun () ->
      Platform.make_heterogeneous ~rates:[| 0.1; nan |] ~bandwidth:1. ());
  rejects "heterogeneous: NaN bandwidth" (fun () ->
      Platform.make_heterogeneous ~rates:[| 0.1 |] ~bandwidth:nan ());
  rejects "heterogeneous: NaN speed" (fun () ->
      Platform.make_heterogeneous ~speeds:[| nan |] ~rates:[| 0.1 |] ~bandwidth:1. ());
  rejects "heterogeneous: NaN price" (fun () ->
      Platform.make_heterogeneous ~prices:[| nan |] ~rates:[| 0.1 |] ~bandwidth:1. ());
  rejects "lambda_of_pfail: NaN pfail" (fun () ->
      Platform.lambda_of_pfail ~pfail:nan ~mean_weight:1.);
  rejects "lambda_of_pfail: NaN mean weight" (fun () ->
      Platform.lambda_of_pfail ~pfail:0.01 ~mean_weight:nan);
  List.iter
    (fun (msg, ccr, total_data, total_weight) ->
      rejects ("bandwidth_for_ccr: NaN " ^ msg) (fun () ->
          Platform.bandwidth_for_ccr ~ccr ~total_data ~total_weight))
    [ ("ccr", nan, 1., 1.); ("data", 1., nan, 1.); ("weight", 1., 1., nan) ]

let test_io_time () =
  let p = Platform.make ~processors:4 ~lambda:0. ~bandwidth:100. in
  check_close "io" 2.5 (Platform.io_time p 250.)

let test_pfail_lambda_roundtrip () =
  List.iter
    (fun pfail ->
      let lambda = Platform.lambda_of_pfail ~pfail ~mean_weight:37. in
      check_close "roundtrip" pfail (Platform.pfail_of_lambda ~lambda ~mean_weight:37.))
    [ 0.01; 0.001; 0.0001 ]

let test_lambda_of_pfail_formula () =
  (* pfail = 1 - e^{-lambda w}: for pfail=0.01, w=1: lambda = -ln(0.99) *)
  check_close "lambda" (-.log 0.99) (Platform.lambda_of_pfail ~pfail:0.01 ~mean_weight:1.)

let test_bandwidth_for_ccr () =
  (* ccr = (data/bw) / weight *)
  let bw = Platform.bandwidth_for_ccr ~ccr:0.1 ~total_data:1000. ~total_weight:50. in
  check_close "resulting ccr" 0.1 (1000. /. bw /. 50.)

let test_heterogeneous_platform () =
  let p = Platform.make_heterogeneous ~rates:[| 0.1; 0.2; 0.3 |] ~bandwidth:1. () in
  Alcotest.(check int) "processors" 3 p.Platform.processors;
  check_close "mean lambda" 0.2 p.Platform.lambda;
  check_close "rate 0" 0.1 (Platform.rate_of p 0);
  check_close "rate 2" 0.3 (Platform.rate_of p 2);
  check_close "total rate" 0.6 (Platform.total_rate p);
  Alcotest.(check bool) "out of range" true
    (match Platform.rate_of p 3 with exception Invalid_argument _ -> true | _ -> false)

let test_homogeneous_rate_of () =
  let p = Platform.make ~processors:4 ~lambda:0.05 ~bandwidth:1. in
  check_close "uniform" 0.05 (Platform.rate_of p 3);
  check_close "total" 0.2 (Platform.total_rate p)

let test_heterogeneous_rejections () =
  Alcotest.(check bool) "empty" true
    (match Platform.make_heterogeneous ~rates:[||] ~bandwidth:1. () with
    | exception Invalid_argument _ -> true
    | _ -> false);
  Alcotest.(check bool) "negative" true
    (match Platform.make_heterogeneous ~rates:[| 0.1; -0.2 |] ~bandwidth:1. () with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_failure_trace_increasing () =
  let rng = Rng.create 3 in
  let tr = Failure.create rng ~lambda:0.5 in
  let t1 = Failure.next_after tr 0. in
  let t2 = Failure.next_after tr t1 in
  let t3 = Failure.next_after tr t2 in
  Alcotest.(check bool) "strictly increasing" true (0. < t1 && t1 < t2 && t2 < t3)

let test_failure_trace_replay () =
  (* going back in time must replay the same instants *)
  let rng = Rng.create 3 in
  let tr = Failure.create rng ~lambda:0.5 in
  let t1 = Failure.next_after tr 0. in
  ignore (Failure.next_after tr 100.);
  check_close "replay" t1 (Failure.next_after tr 0.)

let test_failure_free () =
  let rng = Rng.create 3 in
  let tr = Failure.create rng ~lambda:0. in
  Alcotest.(check bool) "no failures" true (Failure.next_after tr 0. = infinity);
  Alcotest.(check int) "count 0" 0 (Failure.count_until tr 1e9)

let test_failure_rate () =
  (* over horizon T, expect ~ lambda*T failures *)
  let rng = Rng.create 11 in
  let lambda = 0.01 in
  let horizon = 1e5 in
  let total = ref 0 in
  let reps = 20 in
  for _ = 1 to reps do
    let tr = Failure.create rng ~lambda in
    total := !total + Failure.count_until tr horizon
  done;
  let mean = float_of_int !total /. float_of_int reps in
  let expected = lambda *. horizon in
  if abs_float (mean -. expected) > 0.05 *. expected then
    Alcotest.failf "failure count %f vs expected %f" mean expected

let test_sibling_traces_differ () =
  let rng = Rng.create 3 in
  let tr1 = Failure.create rng ~lambda:0.5 in
  let tr2 = Failure.create rng ~lambda:0.5 in
  Alcotest.(check bool) "independent" true
    (Failure.next_after tr1 0. <> Failure.next_after tr2 0.)

let suite =
  [
    Alcotest.test_case "make validation" `Quick test_make_validation;
    Alcotest.test_case "io time" `Quick test_io_time;
    Alcotest.test_case "pfail/lambda roundtrip" `Quick test_pfail_lambda_roundtrip;
    Alcotest.test_case "lambda formula" `Quick test_lambda_of_pfail_formula;
    Alcotest.test_case "bandwidth for CCR" `Quick test_bandwidth_for_ccr;
    Alcotest.test_case "heterogeneous platform" `Quick test_heterogeneous_platform;
    Alcotest.test_case "homogeneous rate_of" `Quick test_homogeneous_rate_of;
    Alcotest.test_case "heterogeneous rejections" `Quick test_heterogeneous_rejections;
    Alcotest.test_case "trace increasing" `Quick test_failure_trace_increasing;
    Alcotest.test_case "trace replay" `Quick test_failure_trace_replay;
    Alcotest.test_case "failure-free trace" `Quick test_failure_free;
    Alcotest.test_case "failure rate" `Quick test_failure_rate;
    Alcotest.test_case "sibling traces differ" `Quick test_sibling_traces_differ;
    Alcotest.test_case "NaN knobs rejected" `Quick test_nan_rejected;
  ]
