(** The min-unfavorable ordering [≼_m] over ordered rate vectors
    (Definition 2) and its Lemma-2 characterization.

    For ordered (ascending) vectors [X] and [Y] of equal length,
    [X ≼_m Y] ("X is min-unfavorable to Y") iff no index has
    [x_i > y_i], or every such index [i] is preceded by some [j < i]
    with [x_j < y_j].  The relation is reflexive, transitive and total
    on equal-length ordered vectors; the max-min fair allocation is
    its unique maximum over the feasible allocations of a network
    (Lemma 1).  Reading: [X ≼_m Y] means [Y] is "more max-min fair"
    than [X]. *)

val sort : float array -> float array
(** Ascending copy — make an arbitrary rate vector "ordered". *)

val leq : float array -> float array -> bool
(** [leq x y] is [X ≼_m Y].  Inputs must be ordered and of equal
    length; raises [Invalid_argument] otherwise. *)

val lt : float array -> float array -> bool
(** [lt x y] is [X <_m Y]: [leq x y] and [x ≠ y]. *)

val compare : float array -> float array -> int
(** Total comparison: negative when [X <_m Y], [0] when equal,
    positive when [Y <_m X].  (This is exactly lexicographic order on
    the ordered vectors, which the paper notes is equivalent to
    alphabetization.) *)

val lemma2_threshold : float array -> float array -> float option
(** [lemma2_threshold x y], for ordered equal-length vectors, returns
    the Lemma-2 witness [x₀] when [X <_m Y]: a threshold such that for
    every [z < x₀] the count [|{x_i ≤ z}| ≥ |{y_i ≤ z}|] and strictly
    [|{x_i ≤ x₀}| > |{y_i ≤ x₀}|].  [None] when [not (lt x y)]. *)

val count_at_or_below : float array -> float -> int
(** [count_at_or_below x z = |{x_i : x_i ≤ z}|] for an ordered [x]
    (binary search). *)

val max_min_of : float array list -> float array
(** The maximum of a non-empty list of equal-length vectors under
    [≼_m] (each is sorted first).  Raises [Invalid_argument] on an
    empty list. *)
