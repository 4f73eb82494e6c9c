type t =
  | Parse of { source : string; message : string }
  | Invalid_dag of { name : string; violations : string list }
  | Io of { path : string; message : string }
  | Journal_corrupt of { path : string; line : int; message : string }
  | Journal_version of { path : string; found : string; expected : string }
  | Store_fingerprint of { path : string; field : string; found : string; expected : string }
  | Deadline_exceeded of { budget : float; completed : int }
  | Retries_exhausted of { attempts : int; last : string }

exception E of t

let raise_ e = raise (E e)

let to_string = function
  | Parse { source; message } -> Printf.sprintf "%s: %s" source message
  | Invalid_dag { name; violations } ->
      let n = List.length violations in
      Printf.sprintf "workflow %s is invalid (%d violation%s): %s" name n
        (if n = 1 then "" else "s")
        (String.concat "; " violations)
  | Io { path; message } -> Printf.sprintf "%s: %s" path message
  | Journal_corrupt { path; line; message } ->
      Printf.sprintf "journal %s: line %d: %s" path line message
  | Journal_version { path; found; expected } ->
      Printf.sprintf
        "journal %s: format version %s, this build reads version %s; re-run without \
         --resume to start a fresh journal"
        path found expected
  | Store_fingerprint { path; field; found; expected } ->
      Printf.sprintf
        "checkpoint store %s: %s mismatch (found %s, this run expects %s); the store was \
         written for a different workflow or build — resuming would replay foreign \
         checkpoints, use a fresh --store-path"
        path field found expected
  | Deadline_exceeded { budget; completed } ->
      Printf.sprintf "deadline of %gs exceeded after %d completed units" budget completed
  | Retries_exhausted { attempts; last } ->
      Printf.sprintf "gave up after %d attempts: %s" attempts last

let exit_code = function
  | Parse _ | Invalid_dag _ | Io _ | Journal_corrupt _ -> 2
  | Journal_version _ | Store_fingerprint _ | Deadline_exceeded _ | Retries_exhausted _ ->
      3
