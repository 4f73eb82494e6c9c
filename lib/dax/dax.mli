(** Pegasus DAX v3 import/export.

    The Pegasus Workflow Generator — the paper's workload source —
    emits abstract workflows as DAX files:

    {v
    <adag name="montage" jobCount="50" ...>
      <job id="ID00000" name="mProjectPP" runtime="13.59">
        <uses file="raw_0.fits" link="input" size="4222"/>
        <uses file="proj_0.fits" link="output" size="8002"/>
      </job>
      ...
      <child ref="ID00002"><parent ref="ID00000"/></child>
    </adag>
    v}

    Import maps each [job] to a task (weight = [runtime] seconds),
    each output [uses] to a file of the given size (in bytes), each
    input [uses] to either a dependency edge from the producing job
    (shared files keep their identity, so a file consumed by several
    jobs is checkpointed once) or, when no job produces it, an initial
    input read from stable storage. [child]/[parent] declarations are
    checked against the file-induced edges; a declared dependency with
    no connecting file becomes a zero-size control edge.

    Export writes the reverse mapping; [of_string (to_string dag)]
    rebuilds an identical workflow (task order, weights, file sizes
    and sharing, initial inputs). *)

exception Error of string

val of_string_result :
  ?source:string -> string -> (Ckpt_dag.Dag.t, Ckpt_resilience.Error.t) result
(** Total parsing entry point: malformed DAX (unknown refs, duplicate
    job ids, missing attributes, negative sizes, cyclic dependencies)
    yields [Error (Parse _)] instead of raising. [source] names the
    input in diagnostics (default ["<dax>"]). *)

val of_file : string -> (Ckpt_dag.Dag.t, Ckpt_resilience.Error.t) result
(** [of_file path] reads and parses a DAX file; I/O failures yield
    [Error (Io _)], malformed content [Error (Parse _)]. Never
    raises. *)

val of_string : string -> Ckpt_dag.Dag.t
(** Thin raising wrapper over {!of_string_result} for legacy callers.
    @raise Error on malformed DAX. *)

val to_string : Ckpt_dag.Dag.t -> string

val save : string -> Ckpt_dag.Dag.t -> unit
