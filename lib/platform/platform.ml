type t = {
  processors : int;
  lambda : float;
  bandwidth : float;
  rates : float array option;
  speeds : float array option;
  prices : float array option;
  base_price : float;
}

let make ~processors ~lambda ~bandwidth =
  if processors < 1 then invalid_arg "Platform.make: need at least one processor";
  (* every range guard is written so that NaN fails it *)
  if not (lambda >= 0.) then invalid_arg "Platform.make: negative failure rate";
  if not (bandwidth > 0.) then invalid_arg "Platform.make: non-positive bandwidth";
  {
    processors;
    lambda;
    bandwidth;
    rates = None;
    speeds = None;
    prices = None;
    base_price = 0.;
  }

let check_speeds processors speeds =
  Option.iter
    (fun s ->
      if Array.length s <> processors then
        invalid_arg "Platform: speeds array size mismatch";
      Array.iter
        (fun v -> if not (v > 0.) then invalid_arg "Platform: non-positive speed")
        s)
    speeds

let check_prices processors prices =
  Option.iter
    (fun s ->
      if Array.length s <> processors then
        invalid_arg "Platform: prices array size mismatch";
      Array.iter
        (fun v -> if not (v > 0.) then invalid_arg "Platform: non-positive price")
        s)
    prices

let make_heterogeneous ?speeds ?prices ~rates ~bandwidth () =
  let processors = Array.length rates in
  if processors < 1 then invalid_arg "Platform.make_heterogeneous: no processors";
  Array.iter
    (fun r -> if not (r >= 0.) then invalid_arg "Platform.make_heterogeneous: negative rate")
    rates;
  if not (bandwidth > 0.) then
    invalid_arg "Platform.make_heterogeneous: non-positive bandwidth";
  check_speeds processors speeds;
  check_prices processors prices;
  let mean = Array.fold_left ( +. ) 0. rates /. float_of_int processors in
  let base_price =
    match prices with None -> 0. | Some p -> Array.fold_left Float.max 0. p
  in
  {
    processors;
    lambda = mean;
    bandwidth;
    rates = Some (Array.copy rates);
    speeds = Option.map Array.copy speeds;
    prices = Option.map Array.copy prices;
    base_price;
  }

let rate_of t proc =
  if proc < 0 || proc >= t.processors then invalid_arg "Platform.rate_of: bad processor";
  match t.rates with None -> t.lambda | Some rates -> rates.(proc)

let speed_of t proc =
  if proc < 0 || proc >= t.processors then invalid_arg "Platform.speed_of: bad processor";
  match t.speeds with None -> 1. | Some speeds -> speeds.(proc)

let price_of t proc =
  if proc < 0 || proc >= t.processors then invalid_arg "Platform.price_of: bad processor";
  match t.prices with None -> t.base_price | Some prices -> prices.(proc)

let uniform_speed t = t.speeds = None

(* Discount-buys-risk law: a processor billed at the on-demand
   reference price carries risk factor 1; a spot processor at a
   fraction of it is proportionally more likely to be revoked
   (risk = base_price / price). Platforms without pricing are uniform
   spot: factor 1 everywhere. *)
let revocation_risk t proc =
  if proc < 0 || proc >= t.processors then
    invalid_arg "Platform.revocation_risk: bad processor";
  match t.prices with
  | None -> 1.
  | Some prices -> if t.base_price <= 0. then 1. else t.base_price /. prices.(proc)

let total_rate t =
  match t.rates with
  | None -> float_of_int t.processors *. t.lambda
  | Some rates -> Array.fold_left ( +. ) 0. rates

let io_time t size = size /. t.bandwidth

(* Cloud billing: a processor is paid for from provisioning (t = 0)
   until it is released or revoked, at [price_of] dollars per hour. *)
let billed_cost t ~until =
  let acc = ref 0. in
  for p = 0 to t.processors - 1 do
    let span = until p in
    if span > 0. && span < infinity then
      acc := !acc +. (price_of t p *. span /. 3600.)
  done;
  !acc

let lambda_of_pfail ~pfail ~mean_weight =
  if not (pfail >= 0. && pfail < 1.) then
    invalid_arg "Platform.lambda_of_pfail: pfail not in [0,1)";
  if not (mean_weight > 0.) then
    invalid_arg "Platform.lambda_of_pfail: non-positive mean weight";
  -.log (1. -. pfail) /. mean_weight

let pfail_of_lambda ~lambda ~mean_weight = 1. -. exp (-.lambda *. mean_weight)

let bandwidth_for_ccr ~ccr ~total_data ~total_weight =
  if not (ccr > 0. && total_data > 0. && total_weight > 0.) then
    invalid_arg "Platform.bandwidth_for_ccr: non-positive argument";
  (* ccr = (total_data / bw) / total_weight  =>  bw = total_data / (ccr * total_weight) *)
  total_data /. (ccr *. total_weight)

let pp fmt t =
  match t.rates with
  | None ->
      Format.fprintf fmt "platform(p=%d, lambda=%g, bw=%g)" t.processors t.lambda t.bandwidth
  | Some _ ->
      Format.fprintf fmt "platform(p=%d, heterogeneous%s%s, mean lambda=%g, bw=%g)"
        t.processors
        (if t.speeds = None then "" else ", sped")
        (if t.prices = None then "" else ", priced")
        t.lambda t.bandwidth
