type method_ =
  | Montecarlo of { trials : int; seed : int }
  | Dodin of { max_support : int }
  | Normal
  | Pathapprox

let default_montecarlo = Montecarlo { trials = 10_000; seed = 1 }
let all_fast = [ Dodin { max_support = 256 }; Normal; Pathapprox ]

let name = function
  | Montecarlo _ -> "montecarlo"
  | Dodin _ -> "dodin"
  | Normal -> "normal"
  | Pathapprox -> "pathapprox"

let of_name s =
  match String.lowercase_ascii s with
  | "montecarlo" | "mc" -> Some default_montecarlo
  | "dodin" -> Some (Dodin { max_support = 256 })
  | "normal" | "sculli" -> Some Normal
  | "pathapprox" | "path" -> Some Pathapprox
  | _ -> None

let estimate method_ dag =
  match method_ with
  | Montecarlo { trials; seed } -> Montecarlo.estimate ~trials ~seed dag
  | Dodin { max_support } -> Dodin.estimate ~max_support dag
  | Normal -> Sculli.estimate dag
  | Pathapprox -> Pathapprox.estimate dag
