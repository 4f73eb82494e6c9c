(* Compare two benchmark result files, one row per (workload, metric),
   each judged against the metric's bound in BENCHMARK.json.

     compare.exe [--benchmark BENCHMARK.json] BASE.json NEW.json

   A row whose spread (the larger of the two runs' per-pass IQR over
   median) exceeds the bound cannot tell a change from noise: it reads
   "unresolved", unless every pass of one run beats every pass of the
   other. Exits 1 when any row regressed. *)

module J = Perfbench.Json
module S = Perfbench.Sample

type bound = { name : string; bound : float; lower_is_better : bool }

let bounds path =
  match J.member "end_to_end" (J.of_file path) with
  | Some (J.Arr metrics) ->
      List.filter_map
        (fun m ->
          match (J.to_str (J.member "name" m), J.to_num (J.member "bound" m)) with
          | Some name, Some bound ->
              Some { name; bound; lower_is_better = J.to_str (J.member "better" m) = Some "lower" }
          | _ -> None)
        metrics
  | _ -> failwith (path ^ ": no end_to_end list")

let workloads path =
  match J.member "workloads" (J.of_file path) with
  | Some (J.Arr ws) ->
      List.filter_map (fun w -> Option.map (fun n -> (n, w)) (J.to_str (J.member "workload" w))) ws
  | _ -> failwith (path ^ ": not a benchmark result file")

let metric w name =
  match J.member "metrics" w with
  | Some ms -> (
      match J.member name ms with
      | Some m ->
          let samples =
            match J.member "samples" m with
            | Some (J.Arr xs) -> List.filter_map (fun x -> J.to_num (Some x)) xs
            | _ -> []
          in
          Option.map (fun v -> (v, samples)) (J.to_num (J.member "value" m))
      | None -> None)
  | None -> None

let spread xs = if List.length xs < 2 then 0. else S.spread xs

type verdict = Unchanged | Improved | Regressed | Unresolved

let verdict_name = function
  | Unchanged -> "unchanged"
  | Improved -> "improved"
  | Regressed -> "regressed"
  | Unresolved -> "unresolved"

(* [worse] is the change as a share of the base, positive when worse *)
let judge b ~worse ~spread ~base_samples ~new_samples =
  let better x y = if b.lower_is_better then x < y else x > y in
  let all_beat xs ys = xs <> [] && ys <> [] && List.for_all (fun x -> List.for_all (better x) ys) xs in
  if spread > b.bound then
    if all_beat new_samples base_samples then Improved
    else if all_beat base_samples new_samples then Regressed
    else Unresolved
  else if worse > b.bound then Regressed
  else if worse < -.b.bound then Improved
  else Unchanged

let () =
  let benchmark = ref "BENCHMARK.json" and files = ref [] in
  Arg.parse
    [ ("--benchmark", Arg.Set_string benchmark, "FILE  bounds file (default BENCHMARK.json)") ]
    (fun f -> files := !files @ [ f ])
    "compare.exe [--benchmark FILE] BASE.json NEW.json";
  match !files with
  | [ base; next ] ->
      let bounds = bounds !benchmark in
      let base_ws = workloads base in
      Printf.printf "%-16s %-10s %14s %14s %9s %8s %7s  %s\n" "workload" "metric" "base" "new"
        "change" "spread" "bound" "verdict";
      let regressed = ref false in
      List.iter
        (fun (wname, w) ->
          match List.assoc_opt wname base_ws with
          | None -> ()
          | Some bw ->
              List.iter
                (fun b ->
                  match (metric bw b.name, metric w b.name) with
                  | Some (bv, bs), Some (nv, ns) ->
                      let change = (nv -. bv) /. bv in
                      let worse = if b.lower_is_better then change else -.change in
                      let spread = Float.max (spread bs) (spread ns) in
                      let v = judge b ~worse ~spread ~base_samples:bs ~new_samples:ns in
                      if v = Regressed then regressed := true;
                      Printf.printf "%-16s %-10s %14.6g %14.6g %+8.1f%% %7.1f%% %6.1f%%  %s\n"
                        wname b.name bv nv (100. *. change) (100. *. spread) (100. *. b.bound)
                        (verdict_name v)
                  | _ -> ())
                bounds)
        (workloads next);
      exit (if !regressed then 1 else 0)
  | _ ->
      prerr_endline "usage: compare.exe [--benchmark FILE] BASE.json NEW.json";
      exit 2
