(** Session link-rate (redundancy) functions — the paper's [v_i].

    Section 3 of the paper extends a session to carry a {e redundancy
    function} [v_i] mapping the set of receiver rates downstream of a
    link to the session's link rate there:
    [u_{i,j} = v_i {a_{i,k} : r_{i,k} ∈ R_{i,j}}].

    Any valid [v_i] must dominate the max ([v_i X ≥ max X], because
    every byte a receiver gets must traverse its data-path) and should
    be monotone in each rate.  Section 2's idealized multi-rate
    sessions use [v_i = max] (redundancy 1, "efficient"); Section 3's
    layered sessions with imperfect join coordination use larger
    functions; a session with no multicast sharing at all (separate
    unicast connections) uses the sum. *)

type t =
  | Efficient
      (** [v X = max X]: perfect layering, redundancy 1 (Section 2's
          standing assumption). *)
  | Scaled of float
      (** [Scaled v] is [v·max X] for a constant redundancy [v ≥ 1] —
          the form used in Figure 4 and in the Figure-6 fair-rate
          study. *)
  | Additive
      (** [v X = Σ X]: no sharing on the link; models a "multicast"
          session realized as independent unicast connections
          (footnote 3 of the paper). *)
  | Custom of string * (float list -> float)
      (** Arbitrary function with a name for printing.  The caller
          must ensure it dominates max and is monotone; {!apply}
          clamps from below at the max to preserve the paper's
          requirement [u_{i,j} ≥ a_{i,k}]. *)

val apply : t -> float list -> float
(** [apply v rates] is the session link rate for the given downstream
    receiver rates.  Returns [0.] on the empty set.  For [Custom] the
    result is clamped to at least [max rates]. *)

val apply_fold : t -> n:int -> get:(int -> float) -> float
(** [apply_fold v ~n ~get] is [apply v (List.init n get)] without
    building the list for the linear shapes ([Efficient], [Scaled],
    [Additive]).  [Custom] functions consume a [float list] by
    construction, so that shape alone still materializes the rates.
    The hot loops over a link's cells fold an [Efficient] cell in
    place, with the same comparisons ([x > max], from [0.]), and call
    this for the other shapes. *)

val name : t -> string
(** Short human-readable name for reports. *)

val dominates : t -> t -> float list -> bool
(** [dominates hi lo rates] checks [apply hi rates ≥ apply lo rates] —
    the hypothesis of the paper's Lemma 4 on one rate set. *)

val is_linear : t -> bool
(** Whether the water-filling allocator may use its exact linear
    engine for sessions with this function ([Efficient], [Scaled],
    [Additive]); [Custom] requires the bisection engine. *)

val as_custom : t -> t
(** The same function wrapped as a [Custom] under the same {!name}:
    [apply (as_custom v) rates = apply v rates] for every shape, since
    [Custom]'s clamp at the max changes none of them, but
    [is_linear (as_custom v)] is [false].  A network whose functions
    are all wrapped drives the allocator's bisection engine, which is
    how tests cross-check the two engines on one input.  [Custom]
    functions are returned unchanged. *)

val pp : Format.formatter -> t -> unit
