(** Fault injection: probabilistic or counted fail-stop errors.

    The harness's own failure model, used to prove that the resilience
    machinery actually recovers: wrap journal I/O or engine steps with
    an injector and every wrapped operation may raise {!Injected} — a
    stand-in for the process dying at that instant. Injection is driven
    by {!Ckpt_prob.Rng}, so a seed fully determines {e which} operation
    fails, and a test can replay the exact same crash. *)

exception Injected of string
(** The simulated fail-stop error; the payload names the operation
    that was killed. *)

type t

val probabilistic : ?prob:float -> seed:int -> unit -> t
(** Each {!inject} call fails independently with probability [prob]
    (default 0.1). *)

val after : int -> t
(** [after n] survives exactly [n] {!inject} calls and fails the
    [(n+1)]-th — a deterministic "crash at cell k". Subsequent calls
    keep failing until {!disarm}. *)

val never : unit -> t
(** Injects nothing (the production no-op). *)

val inject : t -> string -> unit
(** [inject t label] either returns, or raises [Injected label]. *)

val guard : t -> string -> unit -> unit
(** [guard t label] is the thunk form of {!inject}, shaped for
    {!Journal.open_}'s [?inject] hook. *)

val disarm : t -> unit
(** Turns further injections off (lets a "resumed" run proceed). *)

val calls : t -> int
(** Number of {!inject} calls so far. *)

val injections : t -> int
(** Number of calls that raised. *)
