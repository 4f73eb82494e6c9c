(** Append-only, CRC-guarded journal of completed work units.

    The resumable-sweep backbone: each finished cell of an experiment
    (one CCR point of a sweep, one row of the accuracy table, ...) is
    recorded as a [key -> value] entry, where [key] identifies the cell
    and all parameters that determine it and [value] is the rendered
    result. After a crash, re-running with resume enabled replays
    journaled values verbatim and computes only the missing cells, so
    the combined output is bitwise identical to an uninterrupted run.

    Durability discipline (the paper's own medicine, applied to the
    harness): every mutation rewrites the journal to a temporary file
    in the same directory, flushes and fsyncs it, then atomically
    renames it over the previous version — a fail-stop error at any
    instant leaves either the old or the new journal on disk, never a
    torn one. Each line carries a CRC-32 of its payload; a corrupt
    {e tail} line (torn write from a pre-rename crash of an older
    writer) is dropped on load, while corruption {e inside} the journal
    is reported as {!Error.Journal_corrupt}.

    On-disk format, one entry per line:
    {v crc32-hex <TAB> key <TAB> value v}
    Keys must not contain tabs or newlines; values must not contain
    newlines.

    The first line is a mandatory format-version header (same framing,
    reserved key [__journal_format__]). {!open_} refuses a journal
    written under a different version — including pre-versioning (v1)
    files that open directly with an entry — with
    {!Error.Journal_version}, so a resumed sweep can never replay rows
    whose semantics have changed since they were computed. *)

type t

val format_version : int
(** The journal format version this build reads and writes. *)

val open_ :
  ?inject:(unit -> unit) -> ?fresh:bool -> string -> (t, Error.t) result
(** [open_ path] loads the journal at [path], creating an empty one if
    the file does not exist. [fresh] (default [false]) discards any
    existing contents instead of loading them. [inject] is a
    fault-injection hook called immediately before every physical write
    (see {!Faulty.guard}); it defaults to a no-op. *)

val path : t -> string

val length : t -> int
(** Number of live entries. *)

val recovered_tail : t -> bool
(** [true] when a torn trailing line was dropped during load. *)

val find : t -> string -> string option
(** First value journaled under the key, if any. *)

val entries : t -> (string * string) list
(** All entries in append order. *)

val append : t -> key:string -> value:string -> unit
(** Journals one completed unit and persists atomically before
    returning: once [append] returns, the entry survives any fail-stop
    error.

    @raise Error.E ([Io]) on filesystem failure or on a key/value
    containing forbidden characters. Re-appending an existing key is
    allowed; {!find} keeps returning the first binding. *)

val append_incr : t -> key:string -> value:string -> unit
(** As {!append}, but appends the single framed line with [O_APPEND]
    and fsyncs it instead of rewriting the whole journal — constant
    cost per entry, for high-frequency writers (the checkpoint store's
    per-commit records). Durability is per line: once [append_incr]
    returns, the entry survives any fail-stop error; a crash mid-write
    leaves at most a torn trailing line, which {!open_} drops and
    reports via {!recovered_tail}. Falls back to the atomic rewrite
    when the file does not exist yet, and on the first append after a
    torn-tail recovery — the surviving partial line must be truncated
    away, not appended after. *)

val crc32 : string -> int32
(** The IEEE 802.3 CRC-32 used to guard entries (exposed for tests). *)
