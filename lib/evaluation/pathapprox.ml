let estimate dag =
  let n = Prob_dag.n_nodes dag in
  if n = 0 then 0.
  else begin
    let base i = (Prob_dag.node dag i).Prob_dag.base in
    (* top.(i) / bottom.(i): longest base path ending right before /
       starting right after i *)
    let top, bottom = Prob_dag.base_paths dag in
    let l0 = ref 0. in
    for i = 0 to n - 1 do
      let through = top.(i) +. base i +. bottom.(i) in
      if through > !l0 then l0 := through
    done;
    let correction = ref 0. in
    for i = 0 to n - 1 do
      let nd = Prob_dag.node dag i in
      if nd.Prob_dag.pfail > 0. then begin
        let li = Float.max !l0 (top.(i) +. nd.Prob_dag.degraded +. bottom.(i)) in
        correction := !correction +. (nd.Prob_dag.pfail *. (li -. !l0))
      end
    done;
    !l0 +. !correction
  end
