(** Finite discrete probability distributions over non-negative reals.

    A distribution is a sorted array of (value, probability) pairs with
    probabilities summing to 1. These are the workhorse of the exact
    series-parallel makespan evaluation (Möhring's distribution
    calculus) and of Dodin's approximation: sums of independent task
    durations are convolutions, parallel joins are maxima (product of
    CDFs). Support size is kept in check by [compact]. *)

type t
(** Immutable discrete distribution. *)

val of_list : (float * float) list -> t
(** [of_list pairs] builds a distribution from (value, probability)
    pairs. Duplicate values are merged, probabilities are renormalised
    to sum to 1 (guarding against accumulated float error).

    @raise Invalid_argument if the list is empty, a probability is
    negative, or the total mass is zero. *)

val constant : float -> t
(** Point mass at the given value. *)

val two_state : ?p:float -> float -> float -> t
(** [two_state ~p low high] takes value [low] with probability [1-p]
    and [high] with probability [p] — the first-order task model of the
    paper (Eq. 1). Defaults [p] to [0.]. *)

val support : t -> (float * float) array
(** Underlying (value, probability) pairs, sorted by increasing value. *)

val size : t -> int
(** Support size. *)

val mean : t -> float
val variance : t -> float

val quantile : t -> float -> float
(** [quantile d q] is the smallest support value whose cumulative
    probability reaches [q] (with [0 <= q <= 1]). *)

val cdf : t -> float -> float
(** [cdf d x] is P(X <= x). *)

val shift : t -> float -> t
(** [shift d c] adds the constant [c] to every value. *)

val scale : t -> float -> t
(** [scale d c] multiplies every value by [c >= 0]. *)

val add : t -> t -> t
(** Distribution of the sum of two independent variables
    (convolution). Support size is the product of the operands'. *)

val max2 : t -> t -> t
(** Distribution of the max of two independent variables. *)

val min2 : t -> t -> t
(** Distribution of the min of two independent variables. *)

val compact : ?max_size:int -> t -> t
(** [compact ~max_size d] reduces the support to at most [max_size]
    points by merging adjacent values (mass-weighted mean preserves the
    expectation exactly; spread inside a merged bucket is what is
    approximated). Defaults to 512 points. *)

val sample : t -> Rng.t -> float
(** Draw from the distribution by inversion. *)

val equal : ?eps:float -> t -> t -> bool
(** Structural equality up to [eps] on both values and probabilities. *)
