module Rng = Ckpt_prob.Rng

let censor instants ~keep =
  let n = Array.length instants in
  if keep <= 0 then Array.fill instants 0 n infinity
  else if keep < n then begin
    (* one pass in id order keeps the ids of the [keep] earliest
       instants so far, sorted by (instant, id): a later id displaces
       one only when strictly earlier, so ties stay with the lower id *)
    let earliest = Array.make keep 0 and len = ref 0 in
    for p = 0 to n - 1 do
      let x = instants.(p) in
      if !len < keep || Float.compare x instants.(earliest.(keep - 1)) < 0 then begin
        let j = ref (Int.min !len (keep - 1)) in
        while !j > 0 && Float.compare x instants.(earliest.(!j - 1)) < 0 do
          earliest.(!j) <- earliest.(!j - 1);
          decr j
        done;
        earliest.(!j) <- p;
        if !len < keep then incr len
      end
    done;
    (* the last kept pair bounds the rest *)
    let q = earliest.(keep - 1) in
    let xq = instants.(q) in
    for p = 0 to n - 1 do
      let c = Float.compare instants.(p) xq in
      if c > 0 || (c = 0 && p > q) then instants.(p) <- infinity
    done
  end

let draw rng ~processors ~lambda_death ~max_losses =
  if processors < 1 then invalid_arg "Mortality.draw: processors < 1";
  if lambda_death < 0. then invalid_arg "Mortality.draw: negative rate";
  if max_losses < 0 then invalid_arg "Mortality.draw: negative max_losses";
  if lambda_death = 0. || max_losses = 0 then Array.make processors infinity
  else begin
    let deaths =
      Array.init processors (fun _ -> Rng.exponential rng ~rate:lambda_death)
    in
    censor deaths ~keep:max_losses;
    deaths
  end

type revocation = { warn : float; kill : float }

(* Spot-instance revocations: per-processor exponential kill instants
   (heterogeneous rates — the discount-buys-risk law prices flakier
   instances cheaper), each preceded by a warning [grace] seconds
   earlier. The draw layout mirrors [draw] exactly: one exponential
   per positive-rate processor in processor order, then censoring to
   the earliest [max_revocations]; all-zero rates consume no
   randomness, so an unpriced run is bitwise a plain mortality run. *)
let draw_revocations rng ~rates ~grace ~max_revocations =
  let processors = Array.length rates in
  if processors < 1 then invalid_arg "Mortality.draw_revocations: no processors";
  Array.iter
    (fun r -> if r < 0. then invalid_arg "Mortality.draw_revocations: negative rate")
    rates;
  if grace < 0. then invalid_arg "Mortality.draw_revocations: negative grace";
  if max_revocations < 0 then
    invalid_arg "Mortality.draw_revocations: negative max_revocations";
  let all_zero = Array.for_all (fun r -> r = 0.) rates in
  let kills =
    if all_zero || max_revocations = 0 then Array.make processors infinity
    else begin
      let kills =
        Array.init processors (fun p ->
            if rates.(p) = 0. then infinity else Rng.exponential rng ~rate:rates.(p))
      in
      censor kills ~keep:max_revocations;
      kills
    end
  in
  Array.map
    (fun kill ->
      if kill = infinity then { warn = infinity; kill }
      else { warn = Float.max 0. (kill -. grace); kill })
    kills

let eviction_survivors revs ~after =
  let alive = ref [] in
  for p = Array.length revs - 1 downto 0 do
    if revs.(p).warn > after then alive := p :: !alive
  done;
  !alive

let survivors deaths ~after =
  let alive = ref [] in
  for p = Array.length deaths - 1 downto 0 do
    if deaths.(p) > after then alive := p :: !alive
  done;
  !alive
