module Dist = Ckpt_prob.Dist
module Mspg = Ckpt_mspg.Mspg

let distribution ?(max_support = 4096) tree ~node_dist =
  let compact d = Dist.compact ~max_size:max_support d in
  let rec fold = function
    | Mspg.Leaf id -> node_dist id
    | Mspg.Serial l ->
        List.fold_left
          (fun acc child ->
            match acc with
            | None -> Some (fold child)
            | Some d -> Some (compact (Dist.add d (fold child))))
          None l
        |> Option.get
    | Mspg.Parallel l ->
        List.fold_left
          (fun acc child ->
            match acc with
            | None -> Some (fold child)
            | Some d -> Some (compact (Dist.max2 d (fold child))))
          None l
        |> Option.get
  in
  fold tree
