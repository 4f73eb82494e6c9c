(* Packed lower-triangular cost layout: the cost of segment [i..j]
   (inclusive, i <= j) lives at [tri.(j * (j + 1) / 2 + i)]. *)
let tri_size n = n * (n + 1) / 2

let solve_packed ~n ~tri ~etime ~last_ckpt =
  if n < 1 then invalid_arg "Toueg.solve_packed: n < 1";
  if Array.length tri < tri_size n then invalid_arg "Toueg.solve_packed: tri too short";
  if Array.length etime < n || Array.length last_ckpt < n then
    invalid_arg "Toueg.solve_packed: scratch too short";
  for j = 0 to n - 1 do
    let row = j * (j + 1) / 2 in
    etime.(j) <- tri.(row);
    last_ckpt.(j) <- -1;
    for i = 0 to j - 1 do
      let candidate = etime.(i) +. tri.(row + i + 1) in
      if candidate < etime.(j) then begin
        etime.(j) <- candidate;
        last_ckpt.(j) <- i
      end
    done
  done;
  let rec backtrack j acc = if j < 0 then acc else backtrack last_ckpt.(j) (j :: acc) in
  (etime.(n - 1), backtrack (n - 1) [])

let solve_budget_packed ~n ~tri ~budget =
  if n < 1 then invalid_arg "Toueg.solve_budget_packed: n < 1";
  if budget < 1 then invalid_arg "Toueg.solve_budget_packed: budget < 1";
  if Array.length tri < tri_size n then
    invalid_arg "Toueg.solve_budget_packed: tri too short";
  let budget = min budget n in
  (* slot (b, j), at b*n + j: optimal time for tasks 0..j ending in a
     checkpoint after j, using at most b+1 checkpoints in total *)
  let etime = Array.make (budget * n) infinity in
  let last_ckpt = Array.make (budget * n) (-1) in
  for b = 0 to budget - 1 do
    let brow = b * n in
    for j = 0 to n - 1 do
      let row = j * (j + 1) / 2 in
      etime.(brow + j) <- tri.(row);
      last_ckpt.(brow + j) <- -1;
      if b > 0 then
        for i = 0 to j - 1 do
          let candidate = etime.(brow - n + i) +. tri.(row + i + 1) in
          if candidate < etime.(brow + j) then begin
            etime.(brow + j) <- candidate;
            last_ckpt.(brow + j) <- i
          end
        done
    done
  done;
  let rec backtrack b j acc =
    if j < 0 then acc
    else begin
      let i = last_ckpt.((b * n) + j) in
      backtrack (max 0 (b - 1)) i (j :: acc)
    end
  in
  (etime.(((budget - 1) * n) + n - 1), backtrack (budget - 1) (n - 1) [])

let tri_is_monge ~n ~tri =
  let ok = ref true in
  let j = ref 1 in
  while !ok && !j <= n - 2 do
    let row = !j * (!j + 1) / 2 in
    let row' = row + !j + 1 in
    let c = ref 0 in
    while !ok && !c <= !j - 1 do
      if tri.(row + !c) +. tri.(row' + !c + 1) > tri.(row + !c + 1) +. tri.(row' + !c)
      then ok := false;
      incr c
    done;
    incr j
  done;
  !ok

let monotone_cutoff = 128

let solve_packed_auto = solve_packed
