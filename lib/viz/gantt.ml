module Engine = Ckpt_sim.Engine
module Strategy = Ckpt_core.Strategy
module Platform = Ckpt_platform.Platform
module Failure = Ckpt_platform.Failure
module Rng = Ckpt_prob.Rng

(* qualitative palette for successful attempts, cycled per segment *)
let palette =
  [| "#4e79a7"; "#f28e2b"; "#59a14f"; "#b07aa1"; "#76b7b2"; "#edc948"; "#9c755f" |]

let margin_left = 70
let margin_top = 40
let margin_bottom = 30
let lane_gap = 6

let render ?(width = 1000) ?(lane_height = 28) ?(title = "execution") ~processors
    ~makespan records =
  if makespan <= 0. then invalid_arg "Gantt.render: non-positive makespan";
  if processors < 1 then invalid_arg "Gantt.render: no processors";
  let buf = Buffer.create 8192 in
  let plot_width = width - margin_left - 20 in
  let height = margin_top + (processors * (lane_height + lane_gap)) + margin_bottom in
  let x_of t = margin_left + int_of_float (float_of_int plot_width *. t /. makespan) in
  let y_of p = margin_top + (p * (lane_height + lane_gap)) in
  Buffer.add_string buf
    (Printf.sprintf
       "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"%d\" height=\"%d\" \
        font-family=\"sans-serif\" font-size=\"11\">\n"
       width height);
  Buffer.add_string buf
    (Printf.sprintf "<text x=\"%d\" y=\"20\" font-size=\"14\">%s (makespan %.1f s)</text>\n"
       margin_left title makespan);
  (* lanes *)
  for p = 0 to processors - 1 do
    Buffer.add_string buf
      (Printf.sprintf
         "<text x=\"8\" y=\"%d\">p%d</text>\n<rect x=\"%d\" y=\"%d\" width=\"%d\" \
          height=\"%d\" fill=\"#f2f2f2\"/>\n"
         (y_of p + (lane_height / 2) + 4)
         p margin_left (y_of p) plot_width lane_height)
  done;
  (* attempts *)
  Array.iter
    (fun (r : Engine.record) ->
      let colour = palette.(r.Engine.seg_index mod Array.length palette) in
      List.iter
        (fun (a : Engine.attempt) ->
          let x = x_of a.Engine.attempt_start in
          let w = max 1 (x_of a.Engine.attempt_end - x) in
          let y = y_of r.Engine.seg_processor in
          if a.Engine.failed then begin
            Buffer.add_string buf
              (Printf.sprintf
                 "<rect x=\"%d\" y=\"%d\" width=\"%d\" height=\"%d\" fill=\"#e15759\" \
                  fill-opacity=\"0.55\"><title>segment %d attempt failed at \
                  %.2f</title></rect>\n"
                 x (y + 3) w (lane_height - 6) r.Engine.seg_index a.Engine.attempt_end);
            Buffer.add_string buf
              (Printf.sprintf
                 "<text x=\"%d\" y=\"%d\" fill=\"#b00\" font-size=\"12\">&#x26A1;</text>\n"
                 (x + w - 4) (y + lane_height - 8))
          end
          else
            Buffer.add_string buf
              (Printf.sprintf
                 "<rect x=\"%d\" y=\"%d\" width=\"%d\" height=\"%d\" fill=\"%s\"><title>\
                  segment %d: %.2f - %.2f</title></rect>\n"
                 x (y + 3) w (lane_height - 6) colour r.Engine.seg_index
                 a.Engine.attempt_start a.Engine.attempt_end))
        r.Engine.attempts)
    records;
  (* time axis: 5 ticks *)
  let axis_y = margin_top + (processors * (lane_height + lane_gap)) + 4 in
  for k = 0 to 5 do
    let t = makespan *. float_of_int k /. 5. in
    Buffer.add_string buf
      (Printf.sprintf
         "<line x1=\"%d\" y1=\"%d\" x2=\"%d\" y2=\"%d\" stroke=\"#999\"/>\n<text x=\"%d\" \
          y=\"%d\" fill=\"#555\">%.0f</text>\n"
         (x_of t) (axis_y - 6) (x_of t) axis_y (x_of t - 8) (axis_y + 14) t)
  done;
  Buffer.add_string buf "</svg>\n";
  Buffer.contents buf

let render_plan ?(seed = 11) (plan : Strategy.plan) =
  let segs = Ckpt_sim.Runner.segs_of_plan plan in
  let platform = plan.Strategy.platform in
  let rng = Rng.create seed in
  let traces = Hashtbl.create 16 in
  let trace p =
    match Hashtbl.find_opt traces p with
    | Some t -> t
    | None ->
        let t = Failure.create rng ~lambda:(Platform.rate_of platform p) in
        Hashtbl.replace traces p t;
        t
  in
  let run = Engine.run segs trace in
  let processors = plan.Strategy.schedule.Ckpt_core.Schedule.processors in
  render
    ~title:(Strategy.kind_name plan.Strategy.kind)
    ~processors ~makespan:run.Engine.finish run.Engine.records

let save path svg =
  let oc = open_out_bin path in
  output_string oc svg;
  close_out oc
