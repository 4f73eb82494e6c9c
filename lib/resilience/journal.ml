(* CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320) over bytes. *)

let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref (Int32.of_int n) in
         for _ = 0 to 7 do
           if Int32.logand !c 1l <> 0l then
             c := Int32.logxor 0xEDB88320l (Int32.shift_right_logical !c 1)
           else c := Int32.shift_right_logical !c 1
         done;
         !c))

let crc32 s =
  let table = Lazy.force crc_table in
  let c = ref 0xFFFFFFFFl in
  String.iter
    (fun ch ->
      let idx = Int32.to_int (Int32.logand (Int32.logxor !c (Int32.of_int (Char.code ch))) 0xFFl) in
      c := Int32.logxor table.(idx) (Int32.shift_right_logical !c 8))
    s;
  Int32.logxor !c 0xFFFFFFFFl

type t = {
  jpath : string;
  inject : unit -> unit;
  mutable rev_entries : (string * string) list; (* newest first *)
  index : (string, string) Hashtbl.t; (* first binding wins *)
  mutable tail_dropped : bool;
  (* the physical file still ends with the torn partial line dropped at
     load time; the next incremental append must rewrite the file (which
     truncates the garbage) instead of appending after it *)
  mutable repair_pending : bool;
}

let path t = t.jpath
let length t = List.length t.rev_entries
let recovered_tail t = t.tail_dropped
let find t key = Hashtbl.find_opt t.index key
let entries t = List.rev t.rev_entries

let render_line key value = Printf.sprintf "%08lx\t%s\t%s" (crc32 (key ^ "\t" ^ value)) key value

(* The on-disk format version, bumped whenever cell semantics change
   (entry layout, row meaning) so an old journal cannot silently replay
   rows computed under different semantics. Stored as a CRC-guarded
   header line under a reserved key, excluded from the entry list. *)
let format_version = 2
let version_key = "__journal_format__"
let version_value = string_of_int format_version

(* [parse_line line] is [Ok (key, value)] or [Error message]. *)
let parse_line line =
  match String.index_opt line '\t' with
  | None -> Error "missing field separator"
  | Some i -> (
      let crc_hex = String.sub line 0 i in
      let rest = String.sub line (i + 1) (String.length line - i - 1) in
      match String.index_opt rest '\t' with
      | None -> Error "missing value field"
      | Some j -> (
          let key = String.sub rest 0 j in
          let value = String.sub rest (j + 1) (String.length rest - j - 1) in
          match Int32.of_string_opt ("0x" ^ crc_hex) with
          | None -> Error (Printf.sprintf "unreadable CRC %S" crc_hex)
          | Some crc ->
              if crc <> crc32 (key ^ "\t" ^ value) then Error "CRC mismatch"
              else Ok (key, value)))

(* Atomic persistence: whole journal to [path ^ ".tmp"], fsync, rename.
   A fail-stop error at any point leaves the previous version intact. *)
let persist t =
  t.inject ();
  let tmp = t.jpath ^ ".tmp" in
  (try
     let oc = open_out_bin tmp in
     (try
        output_string oc (render_line version_key version_value);
        output_char oc '\n';
        List.iter
          (fun (k, v) ->
            output_string oc (render_line k v);
            output_char oc '\n')
          (List.rev t.rev_entries);
        flush oc;
        Unix.fsync (Unix.descr_of_out_channel oc)
      with e ->
        close_out_noerr oc;
        raise e);
     close_out oc
   with Sys_error m | Unix.Unix_error (_, _, m) ->
     Error.raise_ (Error.Io { path = tmp; message = m }));
  try Sys.rename tmp t.jpath
  with Sys_error m -> Error.raise_ (Error.Io { path = t.jpath; message = m })

let read_lines path =
  let ic = open_in_bin path in
  let rec go acc =
    match input_line ic with
    | line -> go (line :: acc)
    | exception End_of_file ->
        close_in ic;
        List.rev acc
  in
  go []

let open_ ?(inject = fun () -> ()) ?(fresh = false) jpath =
  let t =
    {
      jpath;
      inject;
      rev_entries = [];
      index = Hashtbl.create 64;
      tail_dropped = false;
      repair_pending = false;
    }
  in
  if fresh || not (Sys.file_exists jpath) then Ok t
  else
    match read_lines jpath with
    | exception Sys_error m -> Error (Error.Io { path = jpath; message = m })
    | lines -> (
        let non_empty = List.filteri (fun _ l -> l <> "") lines in
        (* entries follow a mandatory version header: a journal that
           opens with an entry line is a pre-versioning (v1) file, and
           one with a different version value was written by an
           incompatible build — both are refused, never reinterpreted *)
        let load_entries body =
          let n = List.length body in
          let rec load i = function
            | [] -> Ok ()
            | line :: rest -> (
                match parse_line line with
                | Ok (key, value) ->
                    t.rev_entries <- (key, value) :: t.rev_entries;
                    if not (Hashtbl.mem t.index key) then Hashtbl.replace t.index key value;
                    load (i + 1) rest
                | Error message ->
                    (* a torn final line is the expected signature of a
                       crash mid-write; anything earlier is real damage *)
                    if i = n - 1 then begin
                      t.tail_dropped <- true;
                      t.repair_pending <- true;
                      Ok ()
                    end
                    else
                      (* physical line number: one header line above *)
                      Error (Error.Journal_corrupt { path = jpath; line = i + 2; message }))
          in
          match load 0 body with Ok () -> Ok t | Error e -> Error e
        in
        match non_empty with
        | [] -> Ok t
        | first :: body -> (
            match parse_line first with
            | Ok (key, value) when key = version_key ->
                if value = version_value then load_entries body
                else
                  Error
                    (Error.Journal_version
                       { path = jpath; found = value; expected = version_value })
            | Ok _ ->
                Error
                  (Error.Journal_version
                     { path = jpath; found = "1 (unversioned)"; expected = version_value })
            | Error message ->
                (* a lone torn line is a crash before the first entry
                   persisted: recover to an empty journal; a damaged
                   header with entries behind it is real corruption *)
                if body = [] then begin
                  t.tail_dropped <- true;
                  t.repair_pending <- true;
                  Ok t
                end
                else Error (Error.Journal_corrupt { path = jpath; line = 1; message })))

let check_field what ~allow_tab s =
  String.iter
    (fun c ->
      if c = '\n' || c = '\r' || ((not allow_tab) && c = '\t') then
        Error.raise_
          (Error.Io
             { path = "journal"; message = Printf.sprintf "%s contains forbidden character" what }))
    s

let append t ~key ~value =
  check_field "key" ~allow_tab:false key;
  check_field "value" ~allow_tab:true value;
  t.rev_entries <- (key, value) :: t.rev_entries;
  if not (Hashtbl.mem t.index key) then Hashtbl.replace t.index key value;
  persist t

(* Incremental durability for high-frequency writers (the checkpoint
   store's per-commit records): appends ONE framed line with O_APPEND
   and fsyncs it, instead of rewriting the whole journal — the
   rewrite-and-rename discipline is quadratic in the record count. A
   fail-stop error mid-write leaves at most a torn trailing line,
   which [open_] drops and flags ([recovered_tail]); every line whose
   fsync returned is durable. Falls back to the atomic rewrite when
   the file does not exist yet (the version header must lead), and when
   a torn trailing line was dropped at load time — appending after the
   surviving partial line would corrupt the file mid-line, so the first
   write after such a recovery rewrites and truncates it away. *)
let append_incr t ~key ~value =
  check_field "key" ~allow_tab:false key;
  check_field "value" ~allow_tab:true value;
  t.rev_entries <- (key, value) :: t.rev_entries;
  if not (Hashtbl.mem t.index key) then Hashtbl.replace t.index key value;
  if t.repair_pending || not (Sys.file_exists t.jpath) then begin
    persist t;
    t.repair_pending <- false
  end
  else begin
    t.inject ();
    let line = render_line key value ^ "\n" in
    try
      let fd = Unix.openfile t.jpath [ Unix.O_WRONLY; Unix.O_APPEND ] 0o644 in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          let n = String.length line in
          if Unix.write_substring fd line 0 n <> n then
            Error.raise_ (Error.Io { path = t.jpath; message = "short append" });
          Unix.fsync fd)
    with Unix.Unix_error (err, _, _) ->
      Error.raise_ (Error.Io { path = t.jpath; message = Unix.error_message err })
  end
