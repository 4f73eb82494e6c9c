(* Tests for Engine execution records and the Gantt SVG renderer. *)

module Engine = Ckpt_sim.Engine
module Gantt = Ckpt_viz.Gantt
module Failure = Ckpt_platform.Failure
module Rng = Ckpt_prob.Rng
module Pipeline = Ckpt_core.Pipeline
module Strategy = Ckpt_core.Strategy
module Spec = Ckpt_workflows.Spec

let no_failures _ = Failure.create (Rng.create 1) ~lambda:0.

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec scan i = i + nn <= nh && (String.sub haystack i nn = needle || scan (i + 1)) in
  scan 0

let test_execute_records_failure_free () =
  let segs =
    [| { Engine.processor = 0; duration = 3.; preds = [] };
       { Engine.processor = 0; duration = 4.; preds = [ 0 ] } |]
  in
  let { Engine.records; finish = makespan; _ } = Engine.run segs no_failures in
  Alcotest.(check (float 1e-9)) "makespan" 7. makespan;
  Array.iteri
    (fun i (r : Engine.record) ->
      Alcotest.(check int) "index" i r.Engine.seg_index;
      Alcotest.(check int) "one attempt" 1 (List.length r.Engine.attempts);
      List.iter
        (fun (a : Engine.attempt) ->
          Alcotest.(check bool) "no failure" false a.Engine.failed)
        r.Engine.attempts)
    records

let test_execute_records_failures () =
  (* high failure rate: segments must show failed attempts, and the
     last attempt of every record must be successful with the exact
     segment duration *)
  let rng = Rng.create 5 in
  let segs = [| { Engine.processor = 0; duration = 20.; preds = [] } |] in
  let saw_failure = ref false in
  for _ = 1 to 50 do
    let trial = Rng.split rng in
    let { Engine.records; finish = makespan; _ } =
      Engine.run segs (fun _ -> Failure.create trial ~lambda:0.05)
    in
    let r = records.(0) in
    let attempts = r.Engine.attempts in
    let last = List.nth attempts (List.length attempts - 1) in
    Alcotest.(check bool) "last attempt succeeds" false last.Engine.failed;
    Alcotest.(check (float 1e-9)) "last attempt spans the duration" 20.
      (last.Engine.attempt_end -. last.Engine.attempt_start);
    Alcotest.(check (float 1e-9)) "makespan = last end" makespan last.Engine.attempt_end;
    List.iteri
      (fun i (a : Engine.attempt) ->
        if i < List.length attempts - 1 then begin
          Alcotest.(check bool) "earlier attempts failed" true a.Engine.failed;
          saw_failure := true
        end)
      attempts
  done;
  Alcotest.(check bool) "failures were observed at lambda=0.05" true !saw_failure

let test_attempts_chronological () =
  let rng = Rng.create 9 in
  let segs =
    [| { Engine.processor = 0; duration = 10.; preds = [] };
       { Engine.processor = 1; duration = 12.; preds = [] };
       { Engine.processor = 0; duration = 5.; preds = [ 1 ] } |]
  in
  let { Engine.records; _ } =
    Engine.run segs (fun _ -> Failure.create rng ~lambda:0.02)
  in
  Array.iter
    (fun (r : Engine.record) ->
      let rec check_order = function
        | (a : Engine.attempt) :: (b :: _ as tl) ->
            Alcotest.(check bool) "ordered" true (a.Engine.attempt_end <= b.Engine.attempt_start +. 1e-12);
            check_order tl
        | _ -> ()
      in
      check_order r.Engine.attempts)
    records

let test_gantt_svg_structure () =
  let segs =
    [| { Engine.processor = 0; duration = 3.; preds = [] };
       { Engine.processor = 1; duration = 5.; preds = [] } |]
  in
  let { Engine.records; finish = makespan; _ } = Engine.run segs no_failures in
  let svg = Gantt.render ~processors:2 ~makespan records in
  Alcotest.(check bool) "svg root" true (contains svg "<svg");
  Alcotest.(check bool) "closes" true (contains svg "</svg>");
  Alcotest.(check bool) "two lanes" true (contains svg ">p1</text>");
  Alcotest.(check bool) "rectangles" true (contains svg "<rect")

let test_gantt_marks_failures () =
  let rng = Rng.create 13 in
  (* long segment + aggressive failures: the chart must show the
     failure marker *)
  let segs = [| { Engine.processor = 0; duration = 50.; preds = [] } |] in
  let { Engine.records; finish = makespan; _ } =
    Engine.run segs (fun _ -> Failure.create rng ~lambda:0.1)
  in
  let svg = Gantt.render ~processors:1 ~makespan records in
  Alcotest.(check bool) "failure colour present" true (contains svg "#e15759")

let test_render_plan () =
  let dag = Spec.generate Spec.Genome ~seed:1 ~tasks:50 () in
  let setup = Pipeline.prepare ~dag ~processors:5 ~pfail:0.01 ~ccr:0.01 () in
  let plan = Pipeline.plan setup Strategy.Ckpt_some in
  let svg = Gantt.render_plan plan in
  Alcotest.(check bool) "renders" true (contains svg "</svg>");
  Alcotest.(check bool) "five lanes" true (contains svg ">p4</text>")

let test_summarize () =
  let rng = Rng.create 21 in
  let segs = [| { Engine.processor = 0; duration = 30.; preds = [] } |] in
  let { Engine.records; finish = makespan; _ } =
    Engine.run segs (fun _ -> Failure.create rng ~lambda:0.05)
  in
  let s = Engine.summarize records in
  Alcotest.(check (float 1e-9)) "useful = duration" 30. s.Engine.useful_time;
  Alcotest.(check (float 1e-6)) "waste + useful = makespan" makespan
    (s.Engine.useful_time +. s.Engine.wasted_time);
  Alcotest.(check bool) "failure count matches attempts" true
    (s.Engine.failures = List.length records.(0).Engine.attempts - 1)

let test_save () =
  let path = Filename.temp_file "gantt" ".svg" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Gantt.save path "<svg></svg>";
      let ic = open_in path in
      let line = input_line ic in
      close_in ic;
      Alcotest.(check string) "written" "<svg></svg>" line)

let suite =
  [
    Alcotest.test_case "execute records (no failures)" `Quick test_execute_records_failure_free;
    Alcotest.test_case "execute records (failures)" `Quick test_execute_records_failures;
    Alcotest.test_case "attempts chronological" `Quick test_attempts_chronological;
    Alcotest.test_case "svg structure" `Quick test_gantt_svg_structure;
    Alcotest.test_case "svg failure marks" `Quick test_gantt_marks_failures;
    Alcotest.test_case "render plan" `Quick test_render_plan;
    Alcotest.test_case "summarize" `Quick test_summarize;
    Alcotest.test_case "save" `Quick test_save;
  ]
