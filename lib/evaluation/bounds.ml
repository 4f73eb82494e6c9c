let lower dag =
  Prob_dag.longest_path_with dag (fun i ->
      let nd = Prob_dag.node dag i in
      ((1. -. nd.Prob_dag.pfail) *. nd.Prob_dag.base)
      +. (nd.Prob_dag.pfail *. nd.Prob_dag.degraded))

let upper dag = Dodin.estimate ~max_support:2048 dag

let bracket dag = (lower dag, upper dag)
