module Rng = Ckpt_prob.Rng

exception Injected of string

type mode =
  | Probabilistic of { rng : Rng.t; prob : float }
  | After of { mutable left : int }
  | Never

type t = { mutable mode : mode; mutable n_calls : int; mutable n_injected : int }

let probabilistic ?(prob = 0.1) ~seed () =
  if prob < 0. || prob > 1. then invalid_arg "Faulty.probabilistic: prob outside [0,1]";
  { mode = Probabilistic { rng = Rng.create seed; prob }; n_calls = 0; n_injected = 0 }

let after n =
  if n < 0 then invalid_arg "Faulty.after: negative count";
  { mode = After { left = n }; n_calls = 0; n_injected = 0 }

let never () = { mode = Never; n_calls = 0; n_injected = 0 }

let inject t label =
  t.n_calls <- t.n_calls + 1;
  let fire =
    match t.mode with
    | Never -> false
    | Probabilistic { rng; prob } -> Rng.uniform rng < prob
    | After r ->
        if r.left > 0 then begin
          r.left <- r.left - 1;
          false
        end
        else true
  in
  if fire then begin
    t.n_injected <- t.n_injected + 1;
    raise (Injected label)
  end

let guard t label () = inject t label
let disarm t = t.mode <- Never
let calls t = t.n_calls
let injections t = t.n_injected
