(** SVG Gantt charts of simulated executions.

    Renders one lane per processor; each segment attempt is a
    rectangle — failed attempts (cut short by a fail-stop error) in
    red with a lightning mark at the failure instant, the successful
    attempt in the superchain's colour. Pure string generation, no
    dependencies: the output opens in any browser. *)

val render :
  ?width:int ->
  ?lane_height:int ->
  ?title:string ->
  processors:int ->
  makespan:float ->
  Ckpt_sim.Engine.record array ->
  string
(** [render ~processors ~makespan records] draws the execution.
    [width] is the drawing width in pixels (default 1000),
    [lane_height] the per-processor lane height (default 28). *)

val render_plan : ?seed:int -> Ckpt_core.Strategy.plan -> string
(** Simulates one execution of the plan (with the plan's own failure
    rate, traces seeded with [seed], default 11) and renders it at
    {!render}'s default size.

    @raise Invalid_argument on a CKPTNONE plan. *)

val save : string -> string -> unit
(** [save path svg] writes the SVG document to a file. *)
