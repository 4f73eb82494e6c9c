module Dag = Ckpt_dag.Dag
module Rng = Ckpt_prob.Rng

type policy = Deterministic | Random of Rng.t | Min_volume

let order ?(cuts = []) dag tasks policy =
  let n = Dag.n_tasks dag in
  let member = Array.make n false in
  List.iter (fun v -> member.(v) <- true) tasks;
  (* the cuts' pairs the DAG lacks, inside the subset: successors
     sorted ascending, predecessors counted *)
  let extra_succs = Hashtbl.create 8 and extra_preds = Hashtbl.create 8 in
  let extra tbl v = Option.value ~default:[] (Hashtbl.find_opt tbl v) in
  (* [a] minus [b], both ascending ([b] may repeat an id) *)
  let rec minus a b =
    match (a, b) with
    | [], _ -> []
    | _, [] -> a
    | x :: a', y :: b' ->
        if x < y then x :: minus a' b else if x = y then minus a' b else minus a b'
  in
  List.iter
    (fun (sinks, sources) ->
      match List.sort Int.compare (List.filter (fun v -> member.(v)) sources) with
      | [] -> ()
      | sources ->
          List.iter
            (fun u ->
              if member.(u) then
                match minus sources (Dag.succ_ids dag u) with
                | [] -> ()
                | missing ->
                    List.iter
                      (fun v ->
                        Hashtbl.replace extra_preds v
                          (1 + Option.value ~default:0 (Hashtbl.find_opt extra_preds v)))
                      missing;
                    Hashtbl.replace extra_succs u
                      (List.merge Int.compare missing (extra extra_succs u)))
            sinks)
    cuts;
  let internal_preds v = List.filter (fun u -> member.(u)) (Dag.pred_ids dag v) in
  (* ascending, as [Dag.succ_ids] lists a DAG holding the missing pairs
     as edges: the ready list, and so the Random and Min_volume picks,
     are those over that DAG *)
  let internal_succs v =
    List.merge Int.compare
      (List.filter (fun u -> member.(u)) (Dag.succ_ids dag v))
      (extra extra_succs v)
  in
  let indeg = Hashtbl.create 64 in
  List.iter
    (fun v ->
      Hashtbl.replace indeg v
        (List.length (internal_preds v)
        + Option.value ~default:0 (Hashtbl.find_opt extra_preds v)))
    tasks;
  let ready = ref (List.filter (fun v -> Hashtbl.find indeg v = 0) tasks) in
  let count = List.length tasks in
  let result = Array.make count (-1) in
  (* Min_volume bookkeeping: for each produced file, how many internal
     consumers have not executed yet. Volume increase of executing v =
     sizes of v's files with pending internal consumers, minus sizes of
     input files whose last internal consumer is v. *)
  let pending = Hashtbl.create 64 in
  if policy = Min_volume then
    List.iter
      (fun v ->
        List.iter
          (fun (u, (f : Dag.file)) ->
            if member.(u) then
              Hashtbl.replace pending f.Dag.file_id
                (1 + Option.value ~default:0 (Hashtbl.find_opt pending f.Dag.file_id)))
          (Dag.preds dag v))
      tasks;
  let volume_delta v =
    (* freed: input files of v whose pending count would drop to 0 *)
    let freed =
      List.fold_left
        (fun acc (u, (f : Dag.file)) ->
          if member.(u) then
            match Hashtbl.find_opt pending f.Dag.file_id with
            | Some 1 -> acc +. f.Dag.size
            | _ -> acc
          else acc)
        0. (Dag.preds dag v)
    in
    (* created: distinct output files of v with at least one pending
       internal consumer *)
    let seen = Hashtbl.create 8 in
    let created =
      List.fold_left
        (fun acc (u, (f : Dag.file)) ->
          if member.(u) && (not (Hashtbl.mem seen f.Dag.file_id)) then begin
            Hashtbl.replace seen f.Dag.file_id ();
            acc +. f.Dag.size
          end
          else acc)
        0. (Dag.succs dag v)
    in
    created -. freed
  in
  let pick () =
    match (!ready, policy) with
    | [], _ -> None
    | l, Deterministic ->
        let m = List.fold_left min (List.hd l) l in
        Some m
    | l, Random rng -> Some (List.nth l (Rng.int rng (List.length l)))
    | l, Min_volume ->
        let best =
          List.fold_left
            (fun (bv, bd) v ->
              let d = volume_delta v in
              if d < bd -. 1e-12 || (abs_float (d -. bd) <= 1e-12 && v < bv) then (v, d)
              else (bv, bd))
            (List.hd l, volume_delta (List.hd l))
            (List.tl l)
        in
        Some (fst best)
  in
  let remove v = ready := List.filter (fun x -> x <> v) !ready in
  let rec fill k =
    match pick () with
    | None -> k
    | Some v ->
        remove v;
        result.(k) <- v;
        if policy = Min_volume then
          List.iter
            (fun (u, (f : Dag.file)) ->
              if member.(u) then
                match Hashtbl.find_opt pending f.Dag.file_id with
                | Some c -> Hashtbl.replace pending f.Dag.file_id (c - 1)
                | None -> ())
            (Dag.preds dag v);
        List.iter
          (fun u ->
            let d = Hashtbl.find indeg u - 1 in
            Hashtbl.replace indeg u d;
            if d = 0 then ready := u :: !ready)
          (internal_succs v);
        fill (k + 1)
  in
  let filled = fill 0 in
  if filled <> count then invalid_arg "Linearize.order: cyclic task subset";
  result
