let expected_makespan_rate ~wpar ~rate =
  if wpar < 0. then invalid_arg "Ckptnone.expected_makespan_rate: negative Wpar";
  if rate < 0. then invalid_arg "Ckptnone.expected_makespan_rate: negative rate";
  let pfail_run = rate *. wpar in
  ((1. -. pfail_run) *. wpar) +. (pfail_run *. (1.5 *. wpar))
