module Dag = Ckpt_dag.Dag
module Task = Ckpt_dag.Task

type tree = Leaf of Task.id | Serial of tree list | Parallel of tree list
type t = { dag : Dag.t; tree : tree }

let leaf id = Leaf id

let serial children =
  let flattened =
    List.concat_map (function Serial l -> l | other -> [ other ]) children
  in
  match flattened with
  | [] -> invalid_arg "Mspg.serial: empty composition"
  | [ single ] -> single
  | l -> Serial l

let parallel children =
  let flattened =
    List.concat_map (function Parallel l -> l | other -> [ other ]) children
  in
  match flattened with
  | [] -> invalid_arg "Mspg.parallel: empty composition"
  | [ single ] -> single
  | l -> Parallel l

let rec tree_tasks = function
  | Leaf id -> [ id ]
  | Serial l | Parallel l -> List.concat_map tree_tasks l

let rec tree_size = function
  | Leaf _ -> 1
  | Serial l | Parallel l -> List.fold_left (fun acc t -> acc + tree_size t) 0 l

let rec tree_weight dag = function
  | Leaf id -> Dag.weight dag id
  | Serial l | Parallel l ->
      List.fold_left (fun acc t -> acc +. tree_weight dag t) 0. l

let rec tree_sources = function
  | Leaf id -> [ id ]
  | Serial [] -> []
  | Serial (hd :: _) -> tree_sources hd
  | Parallel l -> List.concat_map tree_sources l

let rec tree_sinks = function
  | Leaf id -> [ id ]
  | Serial [] -> []
  | Serial l -> tree_sinks (List.nth l (List.length l - 1))
  | Parallel l -> List.concat_map tree_sinks l

let rec depth = function
  | Leaf _ -> 1
  | Serial l | Parallel l -> 1 + List.fold_left (fun acc t -> max acc (depth t)) 0 l

type decomposition = {
  chain : Task.id list;
  branches : tree list;
  rest : tree option;
}

let decompose tree =
  let factors = match tree with Serial l -> l | other -> [ other ] in
  let rec take_chain acc = function
    | Leaf id :: tl -> take_chain (id :: acc) tl
    | rest -> (List.rev acc, rest)
  in
  let chain, after = take_chain [] factors in
  match after with
  | [] -> { chain; branches = []; rest = None }
  | Parallel branches :: tl ->
      let rest = match tl with [] -> None | l -> Some (serial l) in
      { chain; branches; rest }
  | Serial _ :: _ ->
      (* impossible by the representation invariant *)
      assert false
  | Leaf _ :: _ ->
      (* impossible: take_chain consumed all leading leaves *)
      assert false

let serial_cuts tree =
  let cuts = ref [] in
  let rec go = function
    | Leaf _ -> ()
    | Parallel l -> List.iter go l
    | Serial l ->
        List.iter go l;
        let rec pairs = function
          | a :: (b :: _ as tl) ->
              cuts := (tree_sinks a, tree_sources b) :: !cuts;
              pairs tl
          | [] | [ _ ] -> ()
        in
        pairs l
  in
  go tree;
  !cuts

let implied_edges tree =
  List.concat_map
    (fun (sinks, sources) ->
      List.concat_map (fun s -> List.map (fun d -> (s, d)) sources) sinks)
    (serial_cuts tree)

let implied_count tree =
  let pairs = ref 0 in
  (* a subtree's source and sink counts; each serial cut adds their
     product *)
  let rec ends = function
    | Leaf _ -> (1, 1)
    | Parallel l ->
        List.fold_left
          (fun (so, si) c ->
            let a, b = ends c in
            (so + a, si + b))
          (0, 0) l
    | Serial [] -> (0, 0)
    | Serial (hd :: tl) ->
        let so, si = ends hd in
        let last =
          List.fold_left
            (fun si c ->
              let a, b = ends c in
              pairs := !pairs + (si * a);
              b)
            si tl
        in
        (so, last)
  in
  ignore (ends tree);
  !pairs

(* With every task in the tree once, a task is a sink in at most one
   cut and a source in at most one, so a pair (u, v) is implied iff
   its two cut indices agree. [present.(c)] counts the distinct DAG
   edges of cut [c]; [extra] lists the DAG edges no cut implies. *)
let cut_edges dag cuts =
  let n = Dag.n_tasks dag in
  let sink_cut = Array.make n (-1) and source_cut = Array.make n (-1) in
  List.iteri
    (fun c (sinks, sources) ->
      List.iter (fun u -> sink_cut.(u) <- c) sinks;
      List.iter (fun v -> source_cut.(v) <- c) sources)
    cuts;
  let present = Array.make (List.length cuts) 0 and extra = ref [] in
  for u = 0 to n - 1 do
    (* [succ_ids] is sorted: skip parallel file edges *)
    let rec scan prev = function
      | [] -> ()
      | v :: tl when v = prev -> scan prev tl
      | v :: tl ->
          let c = sink_cut.(u) in
          if c >= 0 && c = source_cut.(v) then present.(c) <- present.(c) + 1
          else extra := (u, v) :: !extra;
          scan v tl
    in
    scan (-1) (Dag.succ_ids dag u)
  done;
  (present, List.rev !extra)

let pairs (sinks, sources) = List.length sinks * List.length sources

let completion { dag; tree } =
  let cuts = serial_cuts tree in
  let present, _ = cut_edges dag cuts in
  List.filteri (fun c cut -> present.(c) < pairs cut) cuts

let validate { dag; tree } =
  let ids = tree_tasks tree in
  let n = Dag.n_tasks dag in
  let seen = Array.make n 0 in
  let ok = ref (Ok ()) in
  List.iter
    (fun id ->
      if id < 0 || id >= n then ok := Error (Printf.sprintf "tree references unknown task %d" id)
      else seen.(id) <- seen.(id) + 1)
    ids;
  (match !ok with
  | Error _ -> ()
  | Ok () ->
      Array.iteri
        (fun id count ->
          if count = 0 then ok := Error (Printf.sprintf "task %d missing from tree" id)
          else if count > 1 then
            ok := Error (Printf.sprintf "task %d appears %d times in tree" id count))
        seen);
  match !ok with
  | Error e -> Error e
  | Ok () -> (
      let cuts = serial_cuts tree in
      match cut_edges dag cuts with
      | present, [] ->
          let implied = List.fold_left (fun acc cut -> acc + pairs cut) 0 cuts in
          Ok (implied - Array.fold_left ( + ) 0 present)
      | _, extra ->
          let show (u, v) = Printf.sprintf "%d->%d" u v in
          Error
            (Printf.sprintf "edge mismatch: the tree does not imply [%s]"
               (String.concat "," (List.map show extra))))

type blueprint =
  | Btask of string * float
  | Bserial of blueprint list
  | Bparallel of blueprint list

let build ?(name = "blueprint") ?(edge_size = fun _ _ -> 1.0) blueprint =
  let dag = Dag.create ~name () in
  let rec instantiate = function
    | Btask (task_name, weight) -> leaf (Dag.add_task dag ~name:task_name ~weight)
    | Bserial l -> serial (List.map instantiate l)
    | Bparallel l -> parallel (List.map instantiate l)
  in
  let tree = instantiate blueprint in
  List.iter
    (fun (src, dst) -> Dag.add_edge dag src dst (edge_size src dst))
    (List.sort_uniq compare (implied_edges tree));
  { dag; tree }

let rec pp_tree fmt = function
  | Leaf id -> Format.fprintf fmt "%d" id
  | Serial l ->
      Format.fprintf fmt "(%a)"
        (Format.pp_print_list ~pp_sep:(fun f () -> Format.fprintf f " ; ") pp_tree)
        l
  | Parallel l ->
      Format.fprintf fmt "(%a)"
        (Format.pp_print_list ~pp_sep:(fun f () -> Format.fprintf f " || ") pp_tree)
        l
