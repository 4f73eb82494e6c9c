(** Typed errors for the fail-stop-tolerant experiment runtime.

    Every recoverable failure mode of the experiment stack — malformed
    inputs, invalid workflow structure, journal corruption, exhausted
    retries, expired wall-clock budgets, plain I/O trouble — is a
    constructor of one sum type, so the CLI boundary can map each to a
    one-line diagnostic and a stable exit code instead of letting an
    OCaml backtrace escape. *)

type t =
  | Parse of { source : string; message : string }
      (** Malformed external input (DAX / XML); [source] names the file
          or stream. *)
  | Invalid_dag of { name : string; violations : string list }
      (** A structurally broken workflow (cycle, NaN weight, ...);
          [violations] holds one rendered message per defect. *)
  | Io of { path : string; message : string }
      (** Filesystem failure while reading or writing [path]. *)
  | Journal_corrupt of { path : string; line : int; message : string }
      (** A journal entry whose CRC or framing check failed. *)
  | Journal_version of { path : string; found : string; expected : string }
      (** A journal written by an incompatible format version (resuming
          against it would replay rows under different semantics). *)
  | Store_fingerprint of { path : string; field : string; found : string; expected : string }
      (** A checkpoint store whose header fingerprint ([field] is
          ["schema"] or ["dag"]) does not match this run — resuming
          against it would replay checkpoints of a different workflow
          or build ([Ckpt_storage.Store]). *)
  | Deadline_exceeded of { budget : float; completed : int }
      (** A wall-clock budget of [budget] seconds ran out after
          [completed] units of work. *)
  | Retries_exhausted of { attempts : int; last : string }
      (** Every retry attempt failed; [last] describes the final
          error. *)

exception E of t
(** Carrier exception for code that must unwind through non-[result]
    call chains; the CLI boundary catches it. *)

val raise_ : t -> 'a
(** [raise_ e] raises {!E}. *)

val to_string : t -> string
(** One-line human-readable rendering (no newlines). *)

val exit_code : t -> int
(** Process exit code the CLI maps the error to: [2] for bad input
    (parse / invalid DAG / I/O / journal corruption), [3] for runtime
    refusal (retries, deadline, journal format-version or checkpoint
    store fingerprint mismatch). *)
