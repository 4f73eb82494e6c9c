(** The checkpoint store: a first-class commit/read/invalidate/stats
    interface over per-segment recovery lines.

    {!Storage} models checkpoint {e faults}; this module models the
    {e store} — which recovery lines are durable, how commits are
    persisted, and how a resumed run decides whether a checkpoint on
    disk is trustworthy. The simulators talk to the store, and the
    store composes a backend with the fault physics:

    - [Memory] — today's semantics; the default configuration is
      bitwise identical to pre-store behaviour (no extra randomness,
      no extra simulated time);
    - [Disk] — a crash-consistent journal of committed recovery lines
      (each record fsynced as one CRC-framed append): a fail-stop
      error mid-commit tears at most the trailing record, which the
      next open drops — never a readable partial — and a resumed run
      replays only records whose fingerprint validates;
    - [Replicated] — the store owns the replica count [k]: commits are
      [k] copies under the {!Storage} per-replica corruption/outage
      model and the planner prices them at [k·C];
    - [Remote] — a latency-priced store: every durable commit and every
      recovery read adds a fixed latency to the simulated clock.

    Checkpoint policies decide which commits are {e durable} (survive a
    recovery line — a processor loss, revocation, or resumed run):
    [every-segment] (the paper's model), [every-k] (only each k-th
    commit per trial durable), [on-interrupt] (only proactive
    grace-window rescue commits durable). Policies never change the
    simulated timing of a run — write spans are part of segment
    durations either way — only what survives an interruption.

    Fingerprint-validated resume: the disk backend's file carries a
    header (schema version, DAG structural hash) and every record
    carries (schema, DAG hash, segment id, payload CRC). A header
    mismatch refuses to open ({!Ckpt_resilience.Error.Store_fingerprint},
    exit 3: the store belongs to a different workflow or build); a
    record mismatch rejects just that record — the segment's commit is
    re-executed and re-appended, never silently resumed. A torn
    trailing record (crash before the rename of an older writer) is
    dropped and counted.

    Determinism: {!create} consumes exactly the randomness
    {!Storage.create} does, and a {!passthrough} configuration draws
    nothing — simulators gated on {!passthrough} reproduce the
    fault-free path bitwise. *)

module Rng = Ckpt_prob.Rng
module Error = Ckpt_resilience.Error

(** {1 Configuration} *)

type policy =
  | Every_segment  (** every commit durable — the paper's model (default) *)
  | Every_k of int  (** only each [k]-th commit per trial durable *)
  | On_interrupt  (** only grace-window rescue commits durable *)

type backend =
  | Memory  (** in-process handles only; bitwise-identical default *)
  | Disk of { path : string }  (** crash-consistent journal of commits *)
  | Replicated of { k : int }  (** store-owned replica count (k·C pricing) *)
  | Remote of { commit_latency : float; read_latency : float }
      (** fixed simulated latency per durable commit / recovery read *)

type config = {
  backend : backend;
  policy : policy;
  faults : Storage.config;  (** the PR-5 fault physics underneath *)
}

val default : config
(** [Memory] backend, [Every_segment] policy, {!Storage.default}
    faults. *)

val passthrough : config -> bool
(** [true] iff the store changes nothing observable: [Memory] backend,
    [Every_segment] policy and {!Storage.reliable} faults — the gate
    under which simulators take the historic fault-free path. *)

val validate : config -> unit
(** @raise Invalid_argument on [Every_k k] with [k < 1], [Replicated]
    with [k < 1], negative [Remote] latencies, an empty [Disk] path, or
    an invalid fault config ({!Storage.validate}). *)

val plan_replicas : config -> int
(** The replica count the {e planner} must price checkpoints at:
    [Replicated k]'s [k], otherwise the fault config's [replicas]. *)

val backend_name : backend -> string
val policy_name : policy -> string

val parse_policy : string -> (policy, string) result
(** ["every-segment"], ["every-K"] (K a positive integer, e.g.
    ["every-3"]), or ["on-interrupt"]. *)

val fingerprint : string list -> string
(** CRC-32 chain over the rendered components, as 8 lower-case hex
    digits — the "DAG structural hash" of the store header. Callers
    render whatever determines checkpoint semantics (segment DAG,
    write spans, platform) into the parts. *)

(** {1 Disk persistence}

    One {!persist} per store {e file}, shared by every trial of a run
    (single-domain only); {!create} attaches it to per-trial stores. *)

type persist

val open_persist :
  ?inject:(unit -> unit) ->
  path:string ->
  fingerprint:string ->
  unit ->
  (persist, Error.t) result
(** Opens (or creates) the store file at [path] and validates its
    header against [fingerprint] and the store's schema version. Errors:
    [Store_fingerprint] on a header mismatch, [Journal_corrupt] /
    [Journal_version] / [Io] as {!Ckpt_resilience.Journal.open_}.
    [inject] fires before every physical write (store-level fault
    injection). Records that fail their own fingerprint or CRC are
    dropped and counted ({!persist_rejected}) — their segments will
    re-commit. *)

val persist_path : persist -> string

val persist_torn : persist -> bool
(** A torn trailing record was dropped on load. *)

val persist_loaded : persist -> int
(** Valid records loaded from the file. *)

val persist_rejected : persist -> int
(** Fingerprint-rejected records: failed their (schema, DAG-hash,
    segment, CRC) validation at load time, or held a stale payload
    that this run's commit superseded. *)

val persist_resumed : persist -> int
(** Commits that were satisfied by a matching on-disk record (no
    rewrite) since {!open_persist}. *)

val persist_appended : persist -> int
(** Records (re-)written since {!open_persist} — fresh commits plus
    re-commits of rejected records. *)

(** {1 Per-trial store} *)

type t
(** One store per Monte-Carlo trial (like {!Storage.t}): fault
    randomness, policy state, handle validity and counters. Not
    shareable across domains. *)

val create :
  ?inject:(string -> unit) ->
  ?persist:persist ->
  ?scope:string ->
  ?trial:int ->
  config ->
  Rng.t ->
  t
(** [create config rng] validates and builds the trial store. [inject]
    fires at the top of every store operation (commit, read,
    invalidate) — wire {!Ckpt_resilience.Faulty.inject} through it.
    [persist] attaches the shared disk file; [scope] (default [""])
    and [trial] (default [0]) prefix its record keys so several
    experiment cells and trials share one file. Consumes exactly the
    randomness {!Storage.create} does.

    @raise Invalid_argument as {!validate}, or on a [Disk] backend
    without [persist] / [persist] without a [Disk] backend. *)

val config : t -> config

val faults : t -> Storage.t
(** The underlying fault-model state (shared counters). *)

type handle
(** One committed checkpoint: the fault-model replica layout plus
    store-level durability and generation. *)

val seg_of : handle -> int
val durable : handle -> bool
(** Whether the commit survives a recovery line (policy-dependent). *)

val available : t -> float -> float
(** Earliest instant [>= at] at which the store is reachable
    ({!Storage.available}). *)

val commit :
  ?interrupt:bool ->
  t ->
  seg:int ->
  write:float ->
  at:float ->
  (float * handle, float) result
(** [commit t ~seg ~write ~at] commits segment [seg]'s checkpoint
    whose write span ended at [at]. [interrupt] marks a grace-window
    rescue commit (durable under [On_interrupt]). A durable commit
    runs the full {!Storage.commit} fault physics (retries, outages)
    plus the backend's commit latency, and is persisted when a disk
    file is attached — a record already on disk with a matching
    fingerprint counts as {e resumed} and is not rewritten. A
    policy-skipped commit is volatile: instant, draws nothing, and its
    handle is readable within the run but not across a recovery line.
    [Error give_up_at] as {!Storage.commit}. *)

val commit_latency : t -> float
(** The backend's fixed commit latency ([Remote], else 0). *)

type read_error =
  | Corrupt  (** every replica corrupt at read time (fault model) *)
  | Rejected  (** invalidated or volatile handle at a recovery line *)

val read : t -> handle -> at:float -> (float, read_error) result
(** A recovery read at instant [at]: [Ok ready_at] when the checkpoint
    reads back valid ([ready_at = at] plus the backend's read
    latency); [Error] counts the failure and logs the producing
    segment in {!failed_reads} — the caller rolls the recovery line
    back. *)

val recovery_readable : t -> handle -> at:float -> bool
(** Recovery-line revalidation (degraded-mode sweeps): [true] iff the
    handle is durable, not invalidated, and its replicas read back
    valid. Counts reads and failures but does {e not} feed
    {!failed_reads} (that log mirrors the in-run engine rollbacks
    only). *)

val invalidate : t -> seg:int -> unit
(** Evicts segment [seg]'s committed checkpoints: every handle
    committed so far reads back [Rejected] until the segment commits
    again (monotone — invalidation never un-happens for old
    handles). *)

val failed_reads : t -> int list
(** Producing segments of every failed in-run {!read} (corrupt or
    rejected), chronological — the engine's cascading-rollback log
    must match exactly. *)

type stats = {
  commits : int;  (** commit calls (volatile ones included) *)
  commit_retries : int;  (** detected commit failures retried *)
  commit_exhausted : int;  (** commits that exhausted the backoff *)
  reads : int;  (** read + revalidation calls *)
  corrupt_reads : int;  (** reads that found every replica corrupt *)
  rejected_reads : int;  (** reads refused by invalidation or policy *)
  skipped : int;  (** policy-skipped (volatile) commits *)
  resumed : int;  (** commits satisfied by a matching disk record *)
  evictions : int;  (** {!invalidate} calls *)
}

val zero : stats
(** All-zero counters (the passthrough placeholder). *)

val add : stats -> stats -> stats
(** Field-wise sum — aggregation across trials. *)

val stats : t -> stats
