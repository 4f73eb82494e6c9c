module Rng = Ckpt_prob.Rng

type policy = {
  max_attempts : int;
  base_delay : float;
  multiplier : float;
  max_delay : float;
  jitter : float;
}

let default =
  { max_attempts = 5; base_delay = 0.1; multiplier = 2.; max_delay = 5.; jitter = 0.25 }

let check_policy p =
  if p.max_attempts < 1 then invalid_arg "Retry: max_attempts < 1";
  if p.base_delay < 0. || p.max_delay < 0. then invalid_arg "Retry: negative delay";
  if p.multiplier < 1. then invalid_arg "Retry: multiplier < 1";
  if p.jitter < 0. || p.jitter > 1. then invalid_arg "Retry: jitter outside [0,1]"

let schedule ?rng p =
  check_policy p;
  Array.init
    (p.max_attempts - 1)
    (fun k ->
      let nominal = Float.min p.max_delay (p.base_delay *. (p.multiplier ** float_of_int k)) in
      let factor =
        match rng with
        | None -> 1.
        | Some rng -> 1. +. (p.jitter *. ((2. *. Rng.uniform rng) -. 1.))
      in
      nominal *. factor)

(* the exceptions worth another attempt; everything else propagates *)
let transient = function
  | Sys_error _ -> true
  | Error.E (Error.Io _) -> true
  | Faulty.Injected _ -> true
  | _ -> false

let with_retries ?(policy = default) ?rng ?(sleep = Unix.sleepf)
    ?(deadline = Deadline.never) f =
  let delays = schedule ?rng policy in
  let rec go attempt last_msg =
    if attempt > policy.max_attempts then
      Error (Error.Retries_exhausted { attempts = policy.max_attempts; last = last_msg })
    else
      match f ~attempt with
      | v -> Ok v
      | exception e when transient e ->
          let msg = Printexc.to_string e in
          if attempt < policy.max_attempts then begin
            (* a deadline expiring mid-backoff cuts the sleep short: we
               doze at most the remaining budget, then stop retrying the
               moment the clock runs out instead of finishing the nap *)
            let d = Float.min delays.(attempt - 1) (Deadline.remaining deadline) in
            if d > 0. then sleep d
          end;
          if Deadline.expired deadline then
            Error
              (Error.Deadline_exceeded
                 { budget = Deadline.budget deadline; completed = attempt })
          else go (attempt + 1) msg
  in
  go 1 "no attempt made"
