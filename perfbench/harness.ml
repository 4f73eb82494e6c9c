(* The ckptwf benchmark: four paper-scale workloads run against the real
   ckptwf binary, end-to-end metrics with their spread, output checks,
   and a separate traced run that splits the same inputs by layer.

     sh perfbench/run.sh [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

   Load comes from this one process: a closed loop that starts the next
   ckptwf process (or sends the next serve request) only when the
   previous one has answered. Every ckptwf runs with --jobs 1. *)

module J = Perfbench.Json
module S = Perfbench.Sample
module P = Perfbench.Proc
module T = Perfbench.Trace
module Ops = Perfbench.Ops

let ckptwf = String.concat Filename.dir_sep [ "_build"; "default"; "bin"; "ckptwf.exe" ]

type ctx = {
  workload : string;
  seed : int;
  dir : string;  (* this run's scratch directory *)
  golden : (string, string) Hashtbl.t option;  (* seed-1 output digests *)
  mutable recorded : (string * string) list;
  mutable attempted : int;
  mutable failed : int;
}

let failure ctx fmt =
  Printf.ksprintf
    (fun msg ->
      ctx.failed <- ctx.failed + 1;
      if ctx.failed <= 20 then Printf.eprintf "perfbench: %s: %s\n%!" ctx.workload msg)
    fmt

(* --- golden output digests (seed 1) --------------------------------- *)

let golden_passes = 2
let golden_path w = String.concat Filename.dir_sep [ "perfbench"; "golden"; w ^ ".txt" ]

let load_golden w =
  let table = Hashtbl.create 64 in
  (match P.read_file (golden_path w) with
  | contents ->
      List.iter
        (fun line ->
          match String.index_opt line '\t' with
          | Some i ->
              Hashtbl.replace table (String.sub line 0 i)
                (String.sub line (i + 1) (String.length line - i - 1))
          | None -> ())
        (String.split_on_char '\n' contents)
  | exception Sys_error _ -> ());
  table

let check_golden ctx ~pass key output =
  if pass < golden_passes then begin
    let d = Digest.to_hex (Digest.string output) in
    ctx.recorded <- (key, d) :: ctx.recorded;
    match ctx.golden with
    | None -> ()
    | Some table -> (
        match Hashtbl.find_opt table key with
        | Some g when g = d -> ()
        | Some _ -> failure ctx "output differs from its seed-1 golden digest: %s" key
        | None -> failure ctx "no seed-1 golden digest for %s" key)
  end

(* --- running ckptwf ------------------------------------------------- *)

let run_cli ctx args =
  ctx.attempted <- ctx.attempted + 1;
  P.run (Array.of_list (ckptwf :: args))

let lines s = List.filter (fun l -> l <> "") (String.split_on_char '\n' s)

(* the rows under a table's header line *)
let body s = match lines s with _ :: rows -> rows | [] -> []
let fields row = String.split_on_char ',' row

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let positive s =
  match float_of_string_opt s with Some f -> Float.is_finite f && f > 0. | None -> false

(* process start-up to exit with no work: what every one-shot command
   pays before it reads its flags *)
let startup_samples ctx ~count =
  List.init count (fun _ ->
      let o = run_cli ctx [ "--version" ] in
      if o.P.code <> 0 || o.P.out = "" then failure ctx "ckptwf --version exited %d" o.P.code;
      o.P.ms)

type pass = {
  wall_ms : float;
  samples : (string * float) list;  (* (class, latency ms) per operation *)
  rss_kb : int;  (* peak resident set of any ckptwf process of the pass *)
  outputs : (string * string) list;  (* figures the traced run must reproduce *)
  setup_ms : float list;  (* daemon start-ups within the pass *)
}

(* --- fig_completion / fig_strict: `ckptwf sweep --csv` -------------- *)

let sweep_header =
  "workflow,tasks,processors,pfail,ccr,em_some,em_all,em_none,rel_all,rel_none,ckpts_some"

let check_sweep ctx (s : Ops.sweep) (o : P.outcome) =
  let key = Ops.sweep_key s in
  if o.P.code <> 0 then failure ctx "%s exited %d" key o.P.code
  else
    match lines o.P.out with
    | header :: rows when header = sweep_header && List.length rows = List.length (Ops.ccrs s.Ops.wf)
      ->
        List.iter2
          (fun row ccr ->
            match fields row with
            | [ name; _; p; pfail; c; a; b; d; e; f; ck ]
              when String.starts_with ~prefix:(s.Ops.wf ^ "-") name
                   && p = string_of_int s.Ops.p
                   && pfail = Printf.sprintf "%g" s.Ops.pfail
                   && c = Printf.sprintf "%g" ccr
                   && List.for_all positive [ a; b; d; e; f ]
                   && Option.fold ~none:false ~some:(fun k -> k >= 1) (int_of_string_opt ck) ->
                ()
            | _ -> failure ctx "%s: malformed row %S" key row)
          rows (Ops.ccrs s.Ops.wf)
    | _ -> failure ctx "%s: unexpected output shape" key

let sweep_pass ctx ~pass sweeps =
  let t0 = P.now_ns () in
  let results =
    List.map
      (fun s ->
        let o = run_cli ctx (Ops.sweep_args s) in
        check_sweep ctx s o;
        check_golden ctx ~pass (Ops.sweep_key s) o.P.out;
        (s, o))
      sweeps
  in
  {
    wall_ms = P.ms_since t0;
    samples = List.map (fun (s, o) -> (Ops.sweep_class s, o.P.ms)) results;
    rss_kb = List.fold_left (fun acc (_, o) -> max acc o.P.rss_kb) 0 results;
    outputs =
      List.map (fun (s, o) -> (Ops.sweep_key s, String.concat "\n" (body o.P.out))) results;
    setup_ms = [];
  }

(* --- serve: `ckptwf serve --socket` --------------------------------- *)

let rec write_all fd s off =
  if off < String.length s then
    write_all fd s (off + Unix.write_substring fd s off (String.length s - off))

let read_all fd =
  let buf = Buffer.create 512 and chunk = Bytes.create 4096 in
  let rec go () =
    match Unix.read fd chunk 0 4096 with
    | 0 -> Buffer.contents buf
    | n ->
        Buffer.add_subbytes buf chunk 0 n;
        go ()
  in
  go ()

(* one request per connection: connect, send, half-close, read to EOF *)
let roundtrip socket line =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_UNIX socket);
      write_all fd (line ^ "\n") 0;
      Unix.shutdown fd Unix.SHUTDOWN_SEND;
      String.trim (read_all fd))

let stats_line = J.to_string (J.Obj [ ("op", J.Str "stats") ])

type daemon = { pid : int; socket : string }

(* spawn a daemon and time it until its first `stats` answer *)
let start_daemon ctx name =
  let socket = Filename.concat ctx.dir (name ^ ".sock") in
  let log =
    Unix.openfile (Filename.concat ctx.dir (name ^ ".log"))
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644
  in
  ctx.attempted <- ctx.attempted + 1;
  let t0 = P.now_ns () in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close log)
      (fun () ->
        P.spawn ~stdout:log ~stderr:log [| ckptwf; "serve"; "--socket"; socket; "--jobs"; "1" |])
  in
  let rec first_answer () =
    match roundtrip socket stats_line with
    | answer -> answer
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
        (match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ when P.ms_since t0 < 10_000. -> ()
        | _ -> failwith "ckptwf serve did not come up");
        Unix.sleepf 0.00005;
        first_answer ()
  in
  let answer = first_answer () in
  let ms = P.ms_since t0 in
  (match J.parse answer with
  | json when J.member "ok" json = Some (J.Bool true) -> ()
  | _ | (exception J.Malformed _) -> failure ctx "daemon's first stats answer: %s" answer);
  ({ pid; socket }, ms)

(* SIGTERM drains the daemon; reaping it yields its peak RSS *)
let stop_daemon ctx d =
  Unix.kill d.pid Sys.sigterm;
  let code, rss_kb = P.reap d.pid in
  if code <> 0 then failure ctx "ckptwf serve exited %d after SIGTERM" code;
  rss_kb

let without keys = function
  | J.Obj fs -> J.Obj (List.filter (fun (k, _) -> not (List.mem k keys)) fs)
  | v -> v

let daemon_setup_samples ctx ~count =
  List.init count (fun i ->
      let d, ms = start_daemon ctx (Printf.sprintf "setup-%d" i) in
      ignore (stop_daemon ctx d);
      ms)

let serve_pass ctx ~pass =
  let reqs = Ops.serve ~seed:ctx.seed ~pass in
  let d, setup = start_daemon ctx (Printf.sprintf "serve-%d" pass) in
  let cold = Hashtbl.create 128 in
  let t0 = P.now_ns () in
  let answered =
    List.mapi
      (fun i r ->
        let line = J.to_string (Ops.request_json r) in
        ctx.attempted <- ctx.attempted + 1;
        let t = P.now_ns () in
        let answer = try roundtrip d.socket line with Unix.Unix_error _ -> "" in
        let ms = P.ms_since t in
        let figure, transcript =
          match J.parse answer with
          | exception J.Malformed _ ->
              failure ctx "request %d: unparsable answer %S" i answer;
              ("", answer)
          | json when J.member "ok" json <> Some (J.Bool true) ->
              failure ctx "request %d failed: %s" i answer;
              ("", answer)
          | json -> (
              let cache = J.to_str (J.member "cache" json) in
              let str k = Option.value (J.to_str (J.member k json)) ~default:"" in
              let transcript = J.to_string (without [ "elapsed_ms" ] json) in
              match r with
              | Ops.Plan { cls; _ } ->
                  let canonical = J.to_string (without [ "cache"; "elapsed_ms" ] json) in
                  (if cls = "warm" then begin
                     if cache <> Some "hit" then failure ctx "warm request %d missed the cache" i;
                     if Hashtbl.find_opt cold line <> Some canonical then
                       failure ctx "warm answer %d differs from its cold answer" i
                   end
                   else begin
                     if cache <> Some "miss" then failure ctx "cold request %d hit the cache" i;
                     Hashtbl.replace cold line canonical
                   end);
                  let ckpts = Option.value (J.to_num (J.member "checkpoints" json)) ~default:0. in
                  (Printf.sprintf "%s/%d" (str "expected_makespan") (int_of_float ckpts), transcript)
              | Ops.Degrade _ ->
                  if cache <> Some "hit" then failure ctx "degrade request %d missed the plan cache" i;
                  if not (positive (str "em_repair") && positive (str "em_restart")) then
                    failure ctx "degrade request %d: bad makespans %s" i answer;
                  (Printf.sprintf "%s/%s" (str "em_repair") (str "em_restart"), transcript))
        in
        ((Ops.request_class r, ms), (Printf.sprintf "request %d" i, figure), transcript))
      reqs
  in
  let wall_ms = P.ms_since t0 in
  ctx.attempted <- ctx.attempted + 1;
  (match J.parse (roundtrip d.socket stats_line) with
  | json ->
      let num k = Option.value (J.to_num (J.member k json)) ~default:(-1.) in
      let fresh = float_of_int (Ops.cold_count + Ops.cold_dp_count) in
      let reused = float_of_int (Ops.warm_count + Ops.degrade_count) in
      if num "plan_misses" <> fresh || num "plan_hits" <> reused || num "setup_misses" <> fresh
      then failure ctx "daemon cache counters off: %s" (J.to_string json)
  | exception (J.Malformed _ | Unix.Unix_error _) -> failure ctx "stats request failed");
  let rss_kb = stop_daemon ctx d in
  check_golden ctx ~pass
    (Printf.sprintf "serve pass %d seed %d" pass ctx.seed)
    (String.concat "\n" (List.map (fun (_, _, t) -> t) answered));
  {
    wall_ms;
    samples = List.map (fun (s, _, _) -> s) answered;
    rss_kb;
    outputs = List.map (fun (_, o, _) -> o) answered;
    setup_ms = [ setup ];
  }

(* --- resilience: simulate, degrade, cloud, storm on a disk store ---- *)

let storm_header =
  "workflow,tasks,processors,strategy,replicas,storage_lambda,corrupt_prob,commit_fail_prob,trials,em,mean_commit_retries,mean_corrupt_reads,mean_rollbacks,ckpts"

(* (resumed, appended) from the disk store's end-of-run stderr summary *)
let store_summary err =
  List.find_map
    (fun line ->
      try
        Scanf.sscanf line "ckptwf: store %s@: %d commit(s) resumed from disk, %d appended"
          (fun _ r a -> Some (r, a))
      with Scanf.Scan_failure _ | End_of_file | Failure _ -> None)
    (lines err)

let table_ok ~header ~rows ~width ~positive_cols out =
  match lines out with
  | h :: body ->
      header h
      && List.length body = rows
      && List.for_all
           (fun row ->
             let f = Array.of_list (fields row) in
             Array.length f = width && List.for_all (fun c -> positive f.(c)) positive_cols)
           body
  | [] -> false

let check_command ctx c ~fresh (o : P.outcome) =
  let key = Ops.command_key c in
  if o.P.code <> 0 then failure ctx "%s exited %d" key o.P.code
  else
    let ok =
      match c with
      | Ops.Simulate _ -> (
          match lines o.P.out with
          | first :: rest ->
              String.starts_with ~prefix:"workflow=genome" first
              && List.length
                   (List.filter
                      (fun l ->
                        contains l "estimate" && contains l "simulated")
                      rest)
                 = 3
          | [] -> false)
      | Ops.Degrade_sweep _ ->
          table_ok ~header:(String.starts_with ~prefix:"workflow,tasks,processors,strategy,losses")
            ~rows:5 ~width:15 ~positive_cols:[ 7; 8 ] o.P.out
      | Ops.Cloud_sweep _ ->
          table_ok ~header:(String.starts_with ~prefix:"workflow,tasks,processors,strategy,trials")
            ~rows:8 ~width:22 ~positive_cols:[ 10; 11 ] o.P.out
      | Ops.Storm { resume; _ } -> (
          table_ok ~header:(String.equal storm_header) ~rows:15 ~width:14 ~positive_cols:[ 9 ]
            o.P.out
          &&
          match (store_summary o.P.err, resume) with
          | Some (0, appended), false -> appended > 0
          | Some (resumed, _), true ->
              (* the resumed run must print exactly what the fresh one did *)
              resumed > 0 && o.P.out = fresh
          | _ -> false)
    in
    if not ok then failure ctx "%s: unexpected output" key

let resilience_pass ctx ~pass =
  let store = Filename.concat ctx.dir (Printf.sprintf "storm-%d.store" pass) in
  let fresh = ref "" in
  let t0 = P.now_ns () in
  let results =
    List.map
      (fun c ->
        let o = run_cli ctx (Ops.command_args ~store c) in
        check_command ctx c ~fresh:!fresh o;
        (match c with Ops.Storm { resume = false; _ } -> fresh := o.P.out | _ -> ());
        check_golden ctx ~pass (Ops.command_key c) o.P.out;
        (c, o))
      (Ops.resilience ~seed:ctx.seed ~pass)
  in
  let wall_ms = P.ms_since t0 in
  (try Sys.remove store with Sys_error _ -> ());
  {
    wall_ms;
    samples = List.map (fun (c, o) -> (Ops.command_class c, o.P.ms)) results;
    rss_kb = List.fold_left (fun acc (_, o) -> max acc o.P.rss_kb) 0 results;
    outputs = List.map (fun (c, o) -> (Ops.command_class c, o.P.out)) results;
    setup_ms = [];
  }

(* --- traced replays ------------------------------------------------- *)

let check_figures ctx ~what expected got =
  if expected <> got then failure ctx "traced %s does not reproduce ckptwf's output" what

let trace_sweeps ctx st ~outputs sweeps =
  List.iter
    (fun s ->
      let rows = String.concat "\n" (Replay.sweep st s) in
      Option.iter
        (fun out -> check_figures ctx ~what:(Ops.sweep_key s) out rows)
        (Option.bind outputs (List.assoc_opt (Ops.sweep_key s))))
    sweeps

let trace_serve ctx st ~outputs ~pass =
  let sv = Replay.service () in
  List.iteri
    (fun i r ->
      T.set_request st.Replay.tr i;
      let figure = Replay.request st sv r in
      Option.iter
        (fun out -> check_figures ctx ~what:(Printf.sprintf "request %d" i) out figure)
        (Option.bind outputs (List.assoc_opt (Printf.sprintf "request %d" i))))
    (Ops.serve ~seed:ctx.seed ~pass);
  Replay.finish_service st sv

let trace_resilience ctx st ~outputs ~pass =
  let store = Filename.concat ctx.dir (Printf.sprintf "trace-storm-%d.store" pass) in
  List.iteri
    (fun i c ->
      T.set_request st.Replay.tr i;
      let rows = Replay.command st ~store c in
      Option.iter
        (fun out ->
          let printed =
            match c with
            | Ops.Simulate _ ->
                List.filter (fun l -> contains l "estimate") (lines out)
            | _ -> body out
          in
          check_figures ctx ~what:(Ops.command_class c) printed rows)
        (Option.bind outputs (List.assoc_opt (Ops.command_class c))))
    (Ops.resilience ~seed:ctx.seed ~pass);
  (try Sys.remove store with Sys_error _ -> ())

(* --- workloads ------------------------------------------------------ *)

type workload = {
  name : string;
  setup : ctx -> count:int -> float list;  (* set-up samples, ms *)
  run_pass : ctx -> pass:int -> pass;
  trace_pass : ctx -> Replay.state -> outputs:(string * string) list option -> pass:int -> unit;
}

let sweep_workload name ops =
  {
    name;
    setup = startup_samples;
    run_pass = (fun ctx ~pass -> sweep_pass ctx ~pass (ops ~seed:ctx.seed ~pass));
    trace_pass =
      (fun ctx st ~outputs ~pass ->
        List.iteri
          (fun i s ->
            T.set_request st.Replay.tr i;
            trace_sweeps ctx st ~outputs [ s ])
          (ops ~seed:ctx.seed ~pass));
  }

let workloads =
  [
    sweep_workload "fig_completion" Ops.fig_completion;
    sweep_workload "fig_strict" Ops.fig_strict;
    {
      name = "serve";
      setup = daemon_setup_samples;
      run_pass = serve_pass;
      trace_pass = (fun ctx st ~outputs ~pass -> trace_serve ctx st ~outputs ~pass);
    };
    {
      name = "resilience";
      setup = startup_samples;
      run_pass = resilience_pass;
      trace_pass = (fun ctx st ~outputs ~pass -> trace_resilience ctx st ~outputs ~pass);
    };
  ]

(* Passes run until the next one would overrun [seconds]; at least
   [min_passes], so every median has several values behind it. *)
let run_passes ~seconds ~min_passes f =
  let t0 = P.now_ns () in
  let rec go k acc last_s =
    if k >= min_passes && (P.ms_since t0 /. 1000.) +. last_s > seconds then List.rev acc
    else
      let t = P.now_ns () in
      let r = f k in
      go (k + 1) (r :: acc) (P.ms_since t /. 1000.)
  in
  go 0 [] 0.

(* --- metrics -------------------------------------------------------- *)

type metric = { mname : string; value : float; unit_ : string; spread_of : float list }

let metric_json m =
  J.Obj
    [ ("value", J.Num m.value); ("unit", J.Str m.unit_);
      ("samples", J.Arr (List.map (fun x -> J.Num x) m.spread_of)) ]

let classes samples =
  List.fold_left (fun acc (c, _) -> if List.mem c acc then acc else acc @ [ c ]) [] samples

let class_stats samples =
  List.map
    (fun c ->
      let xs = List.filter_map (fun (c', ms) -> if c = c' then Some ms else None) samples in
      (c, xs))
    (classes samples)

let end_to_end ~setup_ms passes =
  let pooled = S.pool (List.map (fun p -> List.map snd p.samples) passes) in
  let per_pass f = List.map f passes in
  [
    { mname = "setup_s"; value = S.median setup_ms /. 1000.; unit_ = "s";
      spread_of = List.map (fun x -> x /. 1000.) setup_ms };
    { mname = "wall_s"; value = S.median (per_pass (fun p -> p.wall_ms)) /. 1000.; unit_ = "s";
      spread_of = per_pass (fun p -> p.wall_ms /. 1000.) };
    { mname = "p50_ms"; value = S.median pooled; unit_ = "ms";
      spread_of = per_pass (fun p -> S.median (List.map snd p.samples)) };
    { mname = "p90_ms"; value = S.permille pooled 900; unit_ = "ms";
      spread_of = per_pass (fun p -> S.permille (List.map snd p.samples) 900) };
    { mname = "rss_mb"; value = S.median (per_pass (fun p -> float_of_int p.rss_kb)) /. 1024.;
      unit_ = "MB"; spread_of = per_pass (fun p -> float_of_int p.rss_kb /. 1024.) };
  ]

(* --- one untraced run ----------------------------------------------- *)

type result = { ctx : ctx; metrics : metric list; json : J.t }

(* Set-up is sampled at the start and again before every pass, so its
   median sees the same stretch of machine time as the passes do. *)
let run_untraced ctx w ~seconds =
  let setup = w.setup ctx ~count:10 in
  let passes =
    run_passes ~seconds ~min_passes:3 (fun pass ->
        let before = w.setup ctx ~count:3 in
        let p = w.run_pass ctx ~pass in
        { p with setup_ms = before @ p.setup_ms })
  in
  let setup_ms = setup @ List.concat_map (fun p -> p.setup_ms) passes in
  let metrics = end_to_end ~setup_ms passes in
  let all = List.concat_map (fun p -> p.samples) passes in
  Printf.printf "\n%s: seed %d, %d passes, %d operations, %d failed\n" w.name ctx.seed
    (List.length passes) ctx.attempted ctx.failed;
  Printf.printf "  %-8s %14s %-5s %8s\n" "metric" "value" "unit" "spread";
  List.iter
    (fun m ->
      Printf.printf "  %-8s %14.6g %-5s %7.1f%%\n" m.mname m.value m.unit_
        (100. *. S.spread m.spread_of))
    metrics;
  Printf.printf "  %-16s %7s %10s %16s\n" "class" "count" "p50 ms" "tail ms";
  let class_json =
    List.map
      (fun (c, xs) ->
        let tail = S.tail xs in
        Printf.printf "  %-16s %7d %10.3f %16s\n" c (List.length xs) (S.median xs)
          (match tail with
          | Some (p, v) -> Printf.sprintf "%s %.3f" (S.permille_label p) v
          | None -> "-");
        ( c,
          J.Obj
            ([ ("count", J.Num (float_of_int (List.length xs))); ("p50_ms", J.Num (S.median xs)) ]
            @
            match tail with
            | Some (p, v) -> [ ("tail", J.Str (S.permille_label p)); ("tail_ms", J.Num v) ]
            | None -> []) ))
      (class_stats all)
  in
  let json =
    J.Obj
      [ ("workload", J.Str w.name); ("passes", J.Num (float_of_int (List.length passes)));
        ("attempted", J.Num (float_of_int ctx.attempted));
        ("failed", J.Num (float_of_int ctx.failed));
        ("metrics", J.Obj (List.map (fun m -> (m.mname, metric_json m)) metrics));
        ("classes", J.Obj class_json) ]
  in
  { ctx; metrics; json }

(* --- one traced run ------------------------------------------------- *)

(* median of (round trip - server elapsed_ms) over warm requests *)
let transport_samples ctx =
  let d, _ = start_daemon ctx "transport" in
  let line =
    J.to_string (Ops.request_json (Ops.Plan { cls = "warm"; n = 50; p = 5; seed = ctx.seed }))
  in
  let samples =
    List.init 41 (fun _ ->
        ctx.attempted <- ctx.attempted + 1;
        let t = P.now_ns () in
        let answer = roundtrip d.socket line in
        let ms = P.ms_since t in
        match J.to_num (J.member "elapsed_ms" (J.parse answer)) with
        | Some server -> Some (ms -. server)
        | None | (exception J.Malformed _) ->
            failure ctx "transport probe: bad answer %S" answer;
            None)
  in
  ignore (stop_daemon ctx d);
  (* the first request planned the key; the rest are cache hits *)
  List.filter_map Fun.id (List.tl samples)

let per_layer st ~counts ~startup ~transport =
  let layers = T.by_layer (T.spans st.Replay.tr) in
  let field f n =
    match List.find_opt (fun l -> l.T.layer = n) layers with Some l -> f l | None -> 0.
  in
  let total = field (fun l -> float_of_int l.T.total_ns)
  and self = field (fun l -> float_of_int l.T.self_ns)
  and calls = field (fun l -> float_of_int l.T.calls) in
  let per x d = if d > 0. then x /. d else 0. in
  let ms_per_call n = per (total n) (calls n *. 1e6) in
  let c = T.counter st.Replay.tr in
  let snap k = Option.value (List.assoc_opt k counts) ~default:0. in
  [
    ("cli.startup_ms", S.median startup, "ms");
    ("serve.transport_ms", S.median transport, "ms");
    ("workflows.generate_ms", ms_per_call "workflows.generate", "ms");
    ("mspg.recognize_ms", ms_per_call "mspg.recognize", "ms");
    ("allocate.ms", ms_per_call "allocate", "ms");
    ("placement.table_ms", per (self "placement") (c "placement.plans" *. 1e6), "ms");
    ("placement.ns_per_cell", per (self "placement") (c "placement.cells"), "ns");
    ("toueg.dp_ms", per (total "toueg") (c "placement.plans" *. 1e6), "ms");
    ("strategy.assemble_ms", per (self "strategy.plan") (calls "strategy.plan" *. 1e6), "ms");
    ("eval.pathapprox_ms", ms_per_call "eval.pathapprox", "ms");
    ("sim.trial_us", per (total "sim.trials") (c "sim.trials" *. 1e3), "us");
    ("degrade.trial_us", per (total "degrade.trials") (c "degrade.trials" *. 1e3), "us");
    ("cloud.trial_us", per (total "cloud.trials") (c "cloud.trials" *. 1e3), "us");
    ("store.commit_us", per (self "store.commit") (c "store.appended" *. 1e3), "us");
    ("store.resume_us", per (self "store.resume") (c "store.resume_records" *. 1e3), "us");
    ("mspg.calls", snap "mspg.calls", "count");
    ("mspg.dummy_edges", snap "mspg.dummy_edges", "count");
    ("allocate.superchains", snap "allocate.superchains", "count");
    ("allocate.max_chain_len", snap "allocate.max_chain_len", "count");
    ("placement.cells", snap "placement.cells", "count");
    ("toueg.chains_monotone", snap "toueg.chains_monotone", "count");
    ("toueg.chains_packed", snap "toueg.chains_packed", "count");
    ("strategy.prob_dag_nodes", snap "strategy.prob_dag_nodes", "count");
    ("strategy.prob_dag_edges", snap "strategy.prob_dag_edges", "count");
    ( "degrade.replan_hit_ratio",
      per (snap "degrade.replan_hits") (snap "degrade.replan_hits" +. snap "degrade.replan_misses"),
      "ratio" );
    ( "cloud.replan_hit_ratio",
      per (snap "cloud.replan_hits") (snap "cloud.replan_hits" +. snap "cloud.replan_misses"),
      "ratio" );
    ("store.commits", snap "store.appended", "count");
    ("store.resumed", snap "store.resumed", "count");
    ("store.rejected", snap "store.rejected", "count");
  ]

let span_json (s : T.span) =
  J.Arr
    [ J.Num (float_of_int s.T.id); J.Num (float_of_int s.T.parent); J.Num (float_of_int s.T.req);
      J.Str s.T.name; J.Num (float_of_int s.T.start_ns /. 1e3);
      J.Num (float_of_int (T.duration s) /. 1e3); J.Bool s.T.probe ]

let max_spans_written = 20_000

let run_traced ctx w ~seconds =
  let untraced = w.run_pass ctx ~pass:0 in
  let st = Replay.create ~work:ctx.dir in
  let counts = ref [] in
  let walls =
    run_passes ~seconds ~min_passes:1 (fun pass ->
        let t0 = P.now_ns () in
        w.trace_pass ctx st
          ~outputs:(if pass = 0 then Some untraced.outputs else None)
          ~pass;
        let wall = P.ms_since t0 in
        if pass = 0 then begin
          T.set_request st.Replay.tr (-1);
          Replay.offpath st;
          counts := Hashtbl.fold (fun k v acc -> (k, v) :: acc) st.Replay.tr.T.counters []
        end;
        wall)
  in
  let startup = startup_samples ctx ~count:15 in
  let transport = transport_samples ctx in
  let spans = T.spans st.Replay.tr in
  let own = List.filter (fun s -> s.T.req >= 0) spans in
  let layers =
    List.filter (fun l -> l.T.layer <> "trace.overhead") (T.by_layer own)
  in
  let total_self = List.fold_left (fun acc l -> acc + l.T.self_ns) 0 layers in
  let passes = float_of_int (List.length walls) in
  Printf.printf "\n%s (traced): seed %d, %d traced passes\n" w.name ctx.seed (List.length walls);
  Printf.printf "  %-22s %11s %7s %9s %12s\n" "layer" "self ms/pass" "share" "calls/pass" "ms/call";
  List.iter
    (fun l ->
      Printf.printf "  %-22s %11.2f %6.1f%% %9.0f %12.4f\n" l.T.layer
        (float_of_int l.T.self_ns /. 1e6 /. passes)
        (100. *. float_of_int l.T.self_ns /. float_of_int (max 1 total_self))
        (float_of_int l.T.calls /. passes)
        (float_of_int l.T.total_ns /. 1e6 /. float_of_int l.T.calls))
    layers;
  let traced_s = float_of_int total_self /. 1e9 /. passes in
  let wall_s = List.fold_left ( +. ) 0. walls /. 1000. /. passes in
  Printf.printf
    "  per traced pass: %.3f s attributed to layers, %.3f s wall (probes and overhead %.0f%%); \
     untraced pass 0: %.3f s wall\n"
    traced_s wall_s
    (100. *. (wall_s -. traced_s) /. wall_s)
    (untraced.wall_ms /. 1000.);
  let metrics = per_layer st ~counts:!counts ~startup ~transport in
  Printf.printf "  %-26s %14s %s\n" "per-layer metric" "value" "unit";
  List.iter (fun (n, v, u) -> Printf.printf "  %-26s %14.6g %s\n" n v u) metrics;
  let layer_json l =
    J.Obj
      [ ("layer", J.Str l.T.layer); ("self_ms", J.Num (float_of_int l.T.self_ns /. 1e6));
        ("total_ms", J.Num (float_of_int l.T.total_ns /. 1e6));
        ("calls", J.Num (float_of_int l.T.calls)) ]
  in
  let json =
    J.Obj
      [ ("workload", J.Str w.name); ("traced_passes", J.Num passes);
        ("attempted", J.Num (float_of_int ctx.attempted));
        ("failed", J.Num (float_of_int ctx.failed));
        ("untraced_pass_wall_s", J.Num (untraced.wall_ms /. 1000.));
        ("traced_pass_wall_s", J.Num wall_s); ("attributed_pass_s", J.Num traced_s);
        ("layers", J.Arr (List.map layer_json layers));
        ("offpath_layers",
          J.Arr (List.map layer_json (T.by_layer (List.filter (fun s -> s.T.req < 0) spans))));
        ("metrics",
          J.Obj (List.map (fun (n, v, u) -> (n, J.Obj [ ("value", J.Num v); ("unit", J.Str u) ])) metrics));
        ("spans_total", J.Num (float_of_int (List.length spans)));
        ("spans", J.Arr (List.filteri (fun i _ -> i < max_spans_written) (List.map span_json spans))) ]
  in
  {
    ctx;
    metrics = List.map (fun (n, v, u) -> { mname = n; value = v; unit_ = u; spread_of = [] }) metrics;
    json;
  }

(* --- results -------------------------------------------------------- *)

let git_rev () =
  let read p = try Some (String.trim (P.read_file p)) with Sys_error _ -> None in
  match read (Filename.concat ".git" "HEAD") with
  | None -> "unknown"
  | Some head when String.starts_with ~prefix:"ref: " head -> (
      let r = String.sub head 5 (String.length head - 5) in
      match read (Filename.concat ".git" r) with
      | Some rev -> rev
      | None -> (
          match read (Filename.concat ".git" "packed-refs") with
          | None -> "unknown"
          | Some packed ->
              Option.value ~default:"unknown"
                (List.find_map
                   (fun l ->
                     match String.split_on_char ' ' l with
                     | [ rev; name ] when name = r -> Some rev
                     | _ -> None)
                   (String.split_on_char '\n' packed))))
  | Some rev -> rev

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> Filename.dir_sep && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec remove_tree path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun e -> remove_tree (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let timestamp () =
  let t = Unix.gmtime (Unix.gettimeofday ()) in
  Printf.sprintf "%04d%02d%02d-%02d%02d%02d" (t.Unix.tm_year + 1900) (t.Unix.tm_mon + 1)
    t.Unix.tm_mday t.Unix.tm_hour t.Unix.tm_min t.Unix.tm_sec

(* a timestamped record plus a "-latest" copy, as bench/results keeps *)
let write_results ~dir ~kind json =
  mkdir_p dir;
  let text = J.to_string json ^ "\n" in
  let write name =
    let oc = open_out_bin (Filename.concat dir name) in
    output_string oc text;
    close_out oc
  in
  write (Printf.sprintf "%s-%s.json" kind (timestamp ()));
  write (kind ^ "-latest.json")

let record_golden ctx =
  let oc = open_out_bin (golden_path ctx.workload) in
  List.iter (fun (k, d) -> Printf.fprintf oc "%s\t%s\n" k d) (List.rev ctx.recorded);
  close_out oc

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 25. and trace = ref 0 in
  let record = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME  one workload (default: all four)");
      ("--seed", Arg.Set_int seed, "N  input seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S  measured time per workload (default 25)");
      ("--trace", Arg.Set_int trace, "0|1  per-layer traced run instead of the end-to-end one");
      ("--record-golden", Arg.Set record, " rewrite perfbench/golden from this run (seed 1)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "sh perfbench/run.sh [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]";
  let selected =
    if !workload = "" then workloads
    else
      match List.find_opt (fun w -> w.name = !workload) workloads with
      | Some w -> [ w ]
      | None ->
          Printf.eprintf "perfbench: unknown workload %S (%s)\n" !workload
            (String.concat ", " (List.map (fun w -> w.name) workloads));
          exit 2
  in
  if not (Sys.file_exists ckptwf) then begin
    Printf.eprintf "perfbench: %s not found; run from the repository root after building\n" ckptwf;
    exit 2
  end;
  if !record && (!seed <> 1 || !trace <> 0) then begin
    prerr_endline "perfbench: golden digests are recorded by an untraced seed-1 run only";
    exit 2
  end;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 130)))
    [ Sys.sigint; Sys.sigterm ];
  let scratch = Filename.concat "_perfbench" (Printf.sprintf "run-%d" (Unix.getpid ())) in
  mkdir_p scratch;
  at_exit (fun () -> remove_tree scratch);
  let traced = !trace <> 0 in
  let results =
    List.map
      (fun w ->
        let ctx =
          {
            workload = w.name;
            seed = !seed;
            dir = scratch;
            golden = (if !seed = 1 && not !record then Some (load_golden w.name) else None);
            recorded = [];
            attempted = 0;
            failed = 0;
          }
        in
        let r =
          if traced then run_traced ctx w ~seconds:!seconds
          else run_untraced ctx w ~seconds:!seconds
        in
        if !record then record_golden ctx;
        r)
      selected
  in
  let meta =
    [ ("kind", J.Str (if traced then "trace" else "bench")); ("seed", J.Num (float_of_int !seed));
      ("seconds", J.Num !seconds);
      ("nproc", J.Num (float_of_int (Domain.recommended_domain_count ())));
      ("ocaml", J.Str Sys.ocaml_version); ("git_rev", J.Str (git_rev ())) ]
  in
  write_results ~dir:(Filename.concat "_perfbench" "results")
    ~kind:(if traced then "trace" else "bench")
    (J.Obj (meta @ [ ("workloads", J.Arr (List.map (fun r -> r.json) results)) ]));
  let attempted = List.fold_left (fun acc r -> acc + r.ctx.attempted) 0 results in
  let failed = List.fold_left (fun acc r -> acc + r.ctx.failed) 0 results in
  let single = List.length results = 1 in
  let metrics =
    List.concat_map
      (fun r ->
        List.map
          (fun m ->
            ( (if single then m.mname else r.ctx.workload ^ "." ^ m.mname),
              J.Obj [ ("value", J.Num m.value); ("unit", J.Str m.unit_) ] ))
          r.metrics)
      results
  in
  print_endline
    (J.to_string
       (J.Obj
          [ ("correct", J.Bool (failed = 0)); ("attempted", J.Num (float_of_int attempted));
            ("failed", J.Num (float_of_int failed)); ("metrics", J.Obj metrics) ]))
