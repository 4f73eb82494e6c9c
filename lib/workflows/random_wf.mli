(** Random M-SPG workflows for property-based tests and ablations.

    Draws a random decomposition tree (biased towards realistic
    fork-join shapes), materialises the implied edges, and assigns
    random positive weights and file sizes. By construction the result
    is always a strict M-SPG. *)

val generate : ?seed:int -> max_tasks:int -> unit -> Ckpt_mspg.Mspg.t
(** Materialised random M-SPG (weights in [0.5, 50], sizes in
    [1e5, 1e8]). *)
