(** Dense float vectors.

    Thin, allocation-explicit helpers over [float array], shared by the
    Markov solver and the min-unfavorability ordering code.  Functions
    that combine two vectors raise [Invalid_argument] on length
    mismatch. *)

type t = float array

val make : int -> float -> t
(** [make n x] is a length-[n] vector of [x]s. *)

val add : t -> t -> t
(** Elementwise sum. *)

val scale : float -> t -> t
(** [scale k v] multiplies every component by [k]. *)

val sum : t -> float
(** Compensated component sum. *)

val normalize1 : t -> t
(** [normalize1 v] scales [v] so its components sum to 1.  Raises
    [Invalid_argument] when the sum is zero or not finite. *)

val max_abs_diff : t -> t -> float
(** The largest absolute componentwise difference (0 for empty vectors). *)

val pp : Format.formatter -> t -> unit
(** Renders as [[v0; v1; …]] with 6 significant digits. *)
