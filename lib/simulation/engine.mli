(** Failure-injected execution of a checkpointed schedule.

    Ground truth for the analytical estimators: unlike the first-order
    model (Eq. 2), the simulator handles {e any} number of failures
    per segment and exact exponential failure instants.

    Execution semantics: each processor runs its checkpointed segments
    in schedule order; a segment starts once its processor is free and
    every predecessor segment has completed (its data then sits on
    stable storage), spends [read + work + write] seconds, and
    completes — unless a failure strikes the processor first, in which
    case the memory content is lost and the attempt restarts from the
    last checkpoint (i.e. the segment's beginning: re-read, re-execute,
    re-write). Reboot time is folded into the recovery read, as in the
    paper's model. The makespan is the last completion time.

    For CKPTNONE the paper's operational interpretation applies: any
    failure on a used processor before the workflow completes restarts
    everything from scratch. *)

type seg = {
  processor : int;
  duration : float;  (** read + work + write, seconds *)
  preds : int list;  (** indices of prerequisite segments *)
}

type attempt = { attempt_start : float; attempt_end : float; failed : bool }
(** One try at a segment: it either reached [attempt_start + duration]
    ([failed = false]) or was cut short by a failure at [attempt_end]. *)

type record = { seg_index : int; seg_processor : int; attempts : attempt list }
(** Execution history of one segment, attempts in chronological order;
    the last one succeeded. *)

type summary = {
  failures : int;  (** attempts cut short by a fail-stop error *)
  wasted_time : float;  (** total time spent in failed attempts *)
  useful_time : float;  (** total time of successful attempts *)
}

val summarize : record array -> summary
(** Aggregate waste accounting over an execution's records. *)

(** {1 Execution}

    One entry point runs the segment DAG under every model the
    simulators need; the extensions only add to the plain semantics
    above.

    {b The checkpoint store} ([?store], with per-segment write spans
    [?write]). Each committed segment leaves a checkpoint handle;
    starting a segment first {e reads} every predecessor checkpoint,
    and a read that fails — all replicas corrupt, or the handle
    invalidated by the store — cascades rollback: the producing segment
    re-executes from {e its} last valid inputs, transitively back to
    the workflow inputs if needed (the recovery line moves back).
    Detected commit failures retry under the storage backoff policy
    (each retried write re-pays the write span); an exhausted policy
    re-executes the whole segment. Reads and writes wait out storage
    outages; a remote store adds its commit/read latency to the clock.
    Checkpoint policies only decide handle {e durability} (what
    survives a recovery line) — policy-skipped commits are volatile but
    free, so simulated timing is policy-independent. With a
    [Store.passthrough] configuration the results are bitwise those of
    the storeless run. Without a store the engine makes no store call
    and keeps no handles: reads and commits are instantaneous and
    infallible.

    {b Interrupts} ([?interrupts]). Processors can be lost for good:
    processor [p] receives a {e warning} at [warn p] and is killed at
    [kill p]; a permanent death is a warning with no grace, [warn =
    kill] ({!deaths}). Interrupts only remove processors, so up to the
    first {e disruptive} warning — the earliest warning of a processor
    that still had unfinished segments — the execution is the
    interrupt-free one: the run is that execution, {e cut} at that
    instant. Warnings of processors whose segments all completed
    earlier are harmless: completed segments end in a checkpoint, so
    their outputs survive on stable storage. A segment counts as
    completed iff its {e latest} commit precedes the cut, so work being
    re-executed by a cascading rollback at the cut is counted as lost;
    in-flight work on surviving processors is abandoned too (the
    caller's replanner reschedules it and charges the re-reads).
    During the grace window from [warn p] to [kill p] the warned processor stops
    taking work and, given [rescue] metadata, tries to proactively
    checkpoint the task prefix of its in-flight segment
    ({!Ckpt_recovery.Mortality.revocation}): the rescue stands iff the
    partial write span {e and} the store commit both land before the
    kill — grace races [C]. Zero grace skips the attempt — no store
    traffic, no randomness — so an unannounced revocation is bitwise a
    plain death at the same instant. *)

type rescue_info = {
  rread : float;  (** recovery-read span at the segment's head *)
  task_durs : float array;
      (** per-task compute spans (speed-scaled), in segment order *)
  partial_writes : float array;
      (** write span of a checkpoint covering the first [k] tasks, at
          index [k - 1] (replica-scaled, like [write]) *)
}

type interrupts = {
  warn : int -> float;  (** warning instant per processor ([infinity] = never) *)
  kill : int -> float;  (** kill instant per processor, [>= warn] *)
  rescue : rescue_info array option;
      (** per-segment rescue metadata; [None] never rescues (all a
          zero-grace source needs) *)
}

val deaths : (int -> float) -> interrupts
(** Permanent processor loss at the given instants: warning = kill, no
    rescue. *)

type saved = {
  seg : int;  (** the in-flight segment on the warned processor *)
  tasks : int;  (** its first [tasks] tasks were checkpointed *)
  handle : Ckpt_storage.Store.handle option;
      (** the rescue checkpoint — an [~interrupt] commit, durable even
          under the on-interrupt policy ([None] without a store) *)
}

type cut = {
  proc : int;  (** the processor whose warning cut the run *)
  at : float;  (** the warning instant — the cut *)
  kill : float;  (** that processor's kill instant *)
  completed : bool array;
      (** [completed.(i)]: segment [i]'s checkpoint committed by [at] *)
  saved : saved option;  (** the grace-window rescue, if it stood *)
  lost : float;
      (** gross execution time sunk into never-committed segments
          before the cut; a rescue buys back its prefix (callers net it
          out against [saved]) *)
}

type outcome = {
  records : record array;
      (** attempt histories of the uninterrupted execution (past a cut,
          only attempts before [cut.at] actually happened); rollback
          re-executions are appended to their segment's history *)
  finish : float;  (** its makespan: the last commit instant *)
  ckpts : Ckpt_storage.Store.handle option array;
      (** latest committed checkpoint per segment ([[||]] without a
          store); past a cut, only [ckpts.(i)] with [completed.(i)] is
          trustworthy, and only across a recovery line where the handle
          is durable *)
  rollbacks : int list;
      (** segments re-executed by cascading rollback, in chronological
          order — exactly the producers whose recovery read failed
          ({!Ckpt_storage.Store.failed_reads}) *)
  cut : cut option;  (** [None]: the whole segment DAG completed *)
}

val run :
  ?start:float ->
  ?store:Ckpt_storage.Store.t ->
  ?write:float array ->
  ?interrupts:interrupts ->
  seg array ->
  (int -> Ckpt_platform.Failure.t) ->
  outcome
(** [run segs trace_of_processor] executes the segment DAG against the
    given per-processor failure traces, from wall-clock [start]
    (default 0; every processor becomes free at [start]). Segments must
    be topologically ordered (every pred index smaller) and each
    processor's segments must appear in its execution order.
    [write.(i)] is segment [i]'s (replica-scaled) checkpoint write span
    — what a retried commit re-pays; it is required with [store].

    [trace_of_processor] is called at most once per processor, at the
    processor's first segment (even a zero-duration one), in
    first-use order, so it may create a fresh trace on each call.

    @raise Invalid_argument on a non-topological order, a negative
    processor id, a [store] without a matching [write] array, a
    [rescue] array of the wrong size, or a segment mapped to a
    processor with [warn p <= start]. *)

val makespan : seg array -> (int -> Ckpt_platform.Failure.t) -> float
(** The makespan without store or interrupts: [(run segs
    trace_of_processor).finish] bit for bit, with the same calls to
    [trace_of_processor], but without building any attempt record —
    the Monte-Carlo trials' loop.

    @raise Invalid_argument on a non-topological order or a negative
    processor id. *)

val restart_rate_makespan : wpar:float -> rate:float -> Ckpt_prob.Rng.t -> float
(** CKPTNONE realisation: repeat attempts of length [wpar]; an
    exponential failure at the aggregate rate [rate] (Σ λ_p over the
    processors) during an attempt aborts it at the failure instant and
    restarts from scratch.

    @raise Invalid_argument on a negative [wpar] or [rate]. *)
