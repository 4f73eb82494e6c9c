module Dag = Ckpt_dag.Dag
module Task = Ckpt_dag.Task
module Mspg = Ckpt_mspg.Mspg

type t = {
  dag : Dag.t;
  csr : Ckpt_dag.Compiled.t;
  tree : Mspg.tree;
  completion : (Task.id list * Task.id list) list;
  processors : int;
  superchains : Superchain.t array;
  chain_of_task : int array;
}

let make ~dag ~tree ~processors ~superchains =
  let superchains = Array.of_list superchains in
  Array.iteri
    (fun i (sc : Superchain.t) ->
      if sc.Superchain.id <> i then invalid_arg "Schedule.make: superchain ids out of order")
    superchains;
  let n = Dag.n_tasks dag in
  let chain_of_task = Array.make n (-1) in
  Array.iter
    (fun (sc : Superchain.t) ->
      Array.iter
        (fun task ->
          if chain_of_task.(task) >= 0 then
            invalid_arg (Printf.sprintf "Schedule.make: task %d in two superchains" task);
          chain_of_task.(task) <- sc.Superchain.id)
        sc.Superchain.order)
    superchains;
  Array.iteri
    (fun task c ->
      if c < 0 then invalid_arg (Printf.sprintf "Schedule.make: task %d unscheduled" task))
    chain_of_task;
  let completion = Mspg.completion { Mspg.dag; tree } in
  let csr = Ckpt_dag.Compiled.of_dag dag in
  { dag; csr; tree; completion; processors; superchains; chain_of_task }

let superchain_of_task t task = t.superchains.(t.chain_of_task.(task))

let macro_edges t =
  let seen = Hashtbl.create 64 in
  let acc = ref [] in
  let add cu cv =
    if cu <> cv && not (Hashtbl.mem seen (cu, cv)) then begin
      Hashtbl.replace seen (cu, cv) ();
      acc := (cu, cv) :: !acc
    end
  in
  let chain_of = t.chain_of_task in
  for u = 0 to Dag.n_tasks t.dag - 1 do
    List.iter (fun v -> add chain_of.(u) chain_of.(v)) (Dag.succ_ids t.dag u)
  done;
  (* a completed cut orders every chain holding one of its sinks before
     every chain holding one of its sources *)
  let chains tasks = List.sort_uniq Int.compare (List.map (fun v -> chain_of.(v)) tasks) in
  List.iter
    (fun (sinks, sources) ->
      let to_ = chains sources in
      List.iter (fun cu -> List.iter (add cu) to_) (chains sinks))
    t.completion;
  !acc

let chains_of_processor t proc =
  Array.to_list t.superchains
  |> List.filter (fun (sc : Superchain.t) -> sc.Superchain.processor = proc)

let used_processors t =
  let used = Hashtbl.create 16 in
  Array.iter
    (fun (sc : Superchain.t) -> Hashtbl.replace used sc.Superchain.processor ())
    t.superchains;
  Hashtbl.length used

let check t =
  (* intra-superchain dependencies must go forward *)
  let violation = ref None in
  let backward u v sc =
    violation :=
      Some (Printf.sprintf "dependency %d->%d goes backward in superchain %d" u v sc)
  in
  Array.iter
    (fun (sc : Superchain.t) ->
      Array.iteri
        (fun k task ->
          List.iter
            (fun v ->
              if Superchain.mem sc v && Superchain.position sc v <= k then
                backward task v sc.Superchain.id)
            (Dag.succ_ids t.dag task))
        sc.Superchain.order)
    t.superchains;
  (* so must a completed cut's pairs: within each superchain, its last
     sink runs before its first source *)
  List.iter
    (fun (sinks, sources) ->
      let last = Hashtbl.create 8 in
      List.iter
        (fun u ->
          let sc = superchain_of_task t u in
          let k = Superchain.position sc u in
          match Hashtbl.find_opt last sc.Superchain.id with
          | Some (k0, _) when k0 >= k -> ()
          | _ -> Hashtbl.replace last sc.Superchain.id (k, u))
        sinks;
      List.iter
        (fun v ->
          let sc = superchain_of_task t v in
          match Hashtbl.find_opt last sc.Superchain.id with
          | Some (k, u) when Superchain.position sc v <= k -> backward u v sc.Superchain.id
          | _ -> ())
        sources)
    t.completion;
  match !violation with
  | Some msg -> Error msg
  | None ->
      (* macro graph acyclicity via Kahn *)
      let m = Array.length t.superchains in
      let edges = macro_edges t in
      let indeg = Array.make m 0 in
      List.iter (fun (_, j) -> indeg.(j) <- indeg.(j) + 1) edges;
      let ready = ref [] in
      Array.iteri (fun i d -> if d = 0 then ready := i :: !ready) indeg;
      let seen = ref 0 in
      let rec drain () =
        match !ready with
        | [] -> ()
        | i :: rest ->
            ready := rest;
            incr seen;
            List.iter
              (fun (a, b) ->
                if a = i then begin
                  indeg.(b) <- indeg.(b) - 1;
                  if indeg.(b) = 0 then ready := b :: !ready
                end)
              edges;
            drain ()
      in
      drain ();
      if !seen = m then Ok () else Error "macro graph of superchains has a cycle"
