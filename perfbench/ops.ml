(* The operations each workload runs, generated from the run seed. The
   same (seed, pass) always yields the same operations; ckptwf receives
   only these generated inputs. *)

(* a distinct workflow seed per (run seed, pass, operation) *)
let op_seed ~seed ~pass i = (seed * 1_000_000) + (pass * 1_000) + i

(* the paper's processor counts per workflow size (Section VI) *)
let procs_of n =
  match n with
  | 50 -> [| 3; 5; 7; 10 |]
  | 300 -> [| 18; 35; 52; 70 |]
  | _ -> [| 61; 123; 184; 245 |]

let sizes = [ 50; 300; 1000 ]
let pfails = [| 1e-2; 1e-3; 1e-4 |]

(* the CCR cells `ckptwf sweep` evaluates for a workflow family *)
let ccrs wf =
  let logspace lo hi n =
    List.init n (fun i ->
        let t = float_of_int i /. float_of_int (n - 1) in
        10. ** (log10 lo +. (t *. (log10 hi -. log10 lo))))
  in
  if wf = "genome" then logspace 1e-4 1e-2 9 else logspace 1e-3 1. 10

(* Spread each list's items evenly over one sequence, so every class of
   operation samples the same stretches of machine time and a slow
   stretch cannot shift one class against another. *)
let interleave lists =
  List.concat_map
    (fun l ->
      let n = float_of_int (List.length l) in
      List.mapi (fun k x -> ((float_of_int k +. 0.5) /. n, x)) l)
    lists
  |> List.stable_sort (fun (a, _) (b, _) -> Float.compare a b)
  |> List.map snd

type sweep = { wf : string; n : int; p : int; pfail : float; seed : int }

let sweep_key s = Printf.sprintf "sweep %s n=%d p=%d pfail=%g seed=%d" s.wf s.n s.p s.pfail s.seed
let sweep_class s = Printf.sprintf "%s n=%d" s.wf s.n

let sweep_args s =
  [ "sweep"; "--csv"; "-w"; s.wf; "-n"; string_of_int s.n; "-p"; string_of_int s.p;
    "--pfail"; Printf.sprintf "%g" s.pfail; "--seed"; string_of_int s.seed; "--jobs"; "1" ]

(* fig_completion: one MONTAGE sweep per size, at one of the twelve
   (processor count, pfail) pairs of the grid, cycling pass by pass *)
let fig_completion ~seed ~pass =
  let c = pass mod 12 in
  List.mapi
    (fun i n ->
      { wf = "montage"; n; p = (procs_of n).(c mod 4); pfail = pfails.(c / 4);
        seed = op_seed ~seed ~pass i })
    sizes

(* fig_strict: the whole GENOME and LIGO grid, 72 sweeps, the six
   (workflow, size) classes interleaved *)
let fig_strict ~seed ~pass =
  let i = ref 0 in
  interleave
    (List.concat_map
       (fun wf ->
         List.map
           (fun n ->
             List.concat_map
               (fun p ->
                 Array.to_list
                   (Array.map
                      (fun pfail ->
                        incr i;
                        { wf; n; p; pfail; seed = op_seed ~seed ~pass !i })
                      pfails))
               (Array.to_list (procs_of n)))
           sizes)
       [ "genome"; "ligo" ])

(* serve: one fresh daemon per pass, one request per connection *)
type request =
  | Plan of { cls : string; n : int; p : int; seed : int }
  | Degrade of { n : int; p : int; seed : int; pdeath : float; trials : int }

let request_class = function Plan { cls; _ } -> cls | Degrade _ -> "degrade"

let request_json = function
  | Plan { n; p; seed; _ } ->
      Json.Obj
        [ ("op", Json.Str "plan"); ("workflow", Json.Str "genome");
          ("tasks", Json.Num (float_of_int n)); ("processors", Json.Num (float_of_int p));
          ("seed", Json.Num (float_of_int seed)) ]
  | Degrade { n; p; seed; pdeath; trials } ->
      Json.Obj
        [ ("op", Json.Str "degrade"); ("workflow", Json.Str "genome");
          ("tasks", Json.Num (float_of_int n)); ("processors", Json.Num (float_of_int p));
          ("seed", Json.Num (float_of_int seed)); ("pdeath", Json.Num pdeath);
          ("trials", Json.Num (float_of_int trials)) ]

let cold_count = 100
let cold_dp_count = 20
let warm_count = 400
let warm_keys = 8
let degrade_count = 20

(* Cold plans insert into the daemon's caches (GENOME n=300 p=35);
   cold_dp plans isolate the Algorithm-2 table (GENOME n=1000 on 2
   processors: superchains of up to ~500 tasks); warm plans re-read 8
   cached keys; degrade requests exercise the replan cache on one plan.
   In the pooled latencies p50 falls among the warm requests and p90
   among the cold ones. The warm keys are planned first; everything
   after is interleaved. *)
let serve ~seed ~pass =
  let s i = op_seed ~seed ~pass i in
  let cold = List.init cold_count (fun i -> Plan { cls = "cold"; n = 300; p = 35; seed = s i }) in
  let cold_dp =
    List.init cold_dp_count (fun i ->
        Plan { cls = "cold_dp"; n = 1000; p = 2; seed = s (cold_count + i) })
  in
  let warm =
    List.init warm_count (fun i -> Plan { cls = "warm"; n = 300; p = 35; seed = s (i mod warm_keys) })
  in
  let degrade =
    List.init degrade_count (fun i ->
        Degrade
          { n = 300; p = 35; seed = s 0; pdeath = float_of_int (i + 1) /. 100.; trials = 200 })
  in
  List.filteri (fun i _ -> i < warm_keys) cold
  @ interleave [ List.filteri (fun i _ -> i >= warm_keys) cold; cold_dp; warm; degrade ]

(* resilience: the fault-tolerance commands, scaled to a few seconds a
   pass; the storm pair shares one store file (fresh, then resumed).
   Trial counts space the five commands' run times apart (about 0.1,
   0.3, 0.4, 0.65 and 0.9 s), so the pooled median and p90 each fall
   inside one command's times rather than between two. *)
type command =
  | Simulate of { seed : int; trials : int }
  | Degrade_sweep of { seed : int; trials : int }
  | Cloud_sweep of { seed : int; trials : int }
  | Storm of { seed : int; trials : int; resume : bool }

let resilience ~seed ~pass =
  let s i = op_seed ~seed ~pass i in
  [ Simulate { seed = s 0; trials = 2000 }; Degrade_sweep { seed = s 1; trials = 100 };
    Cloud_sweep { seed = s 2; trials = 50 }; Storm { seed = s 3; trials = 5; resume = false };
    Storm { seed = s 3; trials = 5; resume = true } ]

let command_class = function
  | Simulate _ -> "simulate"
  | Degrade_sweep _ -> "degrade"
  | Cloud_sweep _ -> "cloud"
  | Storm { resume = false; _ } -> "storm_fresh"
  | Storm { resume = true; _ } -> "storm_resume"

let command_args ~store = function
  | Simulate { seed; trials } ->
      [ "simulate"; "-w"; "genome"; "-n"; "1000"; "-p"; "61"; "--trials"; string_of_int trials;
        "--seed"; string_of_int seed; "--jobs"; "1" ]
  | Degrade_sweep { seed; trials } ->
      [ "degrade"; "--csv"; "--trials"; string_of_int trials; "--seed"; string_of_int seed;
        "--jobs"; "1" ]
  | Cloud_sweep { seed; trials } ->
      [ "cloud"; "--trials"; string_of_int trials; "--seed"; string_of_int seed; "--jobs"; "1" ]
  | Storm { seed; trials; _ } ->
      [ "storm"; "--trials"; string_of_int trials; "--seed"; string_of_int seed; "--jobs"; "1";
        "--store"; "disk"; "--store-path"; store ]

let command_key c = String.concat " " (command_class c :: command_args ~store:"S" c)
