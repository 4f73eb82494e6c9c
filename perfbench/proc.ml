(* Child processes of the benchmark: started one at a time, always
   reaped, and killed on the way out if a run aborts. *)

external now_ns : unit -> int = "perfbench_now_ns" [@@noalloc]
external wait4 : int -> int * int = "perfbench_wait4"

let ms_since t0 = float_of_int (now_ns () - t0) /. 1e6

let live = ref []

let kill_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (wait4 pid) with Failure _ -> ())
    !live;
  live := []

let () = at_exit kill_all

let spawn ?(stdout = Unix.stdout) ?(stderr = Unix.stderr) argv =
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close null)
      (fun () -> Unix.create_process argv.(0) argv null stdout stderr)
  in
  live := pid :: !live;
  pid

(* (exit code, peak RSS in KiB) *)
let reap pid =
  let r = wait4 pid in
  live := List.filter (( <> ) pid) !live;
  r

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

type outcome = { code : int; ms : float; rss_kb : int; out : string; err : string }

(* read every pipe to EOF, whichever has data first, so a child never
   blocks on a full pipe *)
let drain sinks =
  let chunk = Bytes.create 65536 in
  let rec loop sinks =
    if sinks <> [] then
      match Unix.select (List.map fst sinks) [] [] (-1.) with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop sinks
      | ready, _, _ ->
          loop
            (List.filter
               (fun (fd, buf) ->
                 (not (List.mem fd ready))
                 ||
                 match Unix.read fd chunk 0 (Bytes.length chunk) with
                 | 0 -> false
                 | n ->
                     Buffer.add_subbytes buf chunk 0 n;
                     true)
               sinks)
  in
  loop sinks

(* Run [argv] to completion with stdout and stderr captured through
   pipes; the timing covers start-up to exit, as a user sees it. *)
let run argv =
  let out_r, out_w = Unix.pipe ~cloexec:true () and err_r, err_w = Unix.pipe ~cloexec:true () in
  let out = Buffer.create 1024 and err = Buffer.create 256 in
  let t0 = now_ns () in
  let pid =
    Fun.protect
      ~finally:(fun () ->
        Unix.close out_w;
        Unix.close err_w)
      (fun () -> spawn ~stdout:out_w ~stderr:err_w argv)
  in
  Fun.protect
    ~finally:(fun () ->
      Unix.close out_r;
      Unix.close err_r)
    (fun () -> drain [ (out_r, out); (err_r, err) ]);
  let code, rss_kb = reap pid in
  { code; ms = ms_since t0; rss_kb; out = Buffer.contents out; err = Buffer.contents err }
