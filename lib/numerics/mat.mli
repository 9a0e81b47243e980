(** Dense row-major float matrices and a direct linear solver.

    Small systems only: the Markov module's exact 2-receiver chains are
    solved either directly (dense, for small state spaces) or by sparse
    power iteration ({!Sparse}).  Partial pivoting keeps the direct
    solver stable on the mildly ill-conditioned [(P^T − I)] systems
    that stationary-distribution computations produce. *)

type t
(** A dense [rows × cols] matrix. *)

val init : int -> int -> (int -> int -> float) -> t
(** [init r c f] has entry [f i j] at row [i], column [j]. *)

val identity : int -> t

val rows : t -> int
val cols : t -> int

val get : t -> int -> int -> float

val vec_mul : Vec.t -> t -> Vec.t
(** [vec_mul v a] is the row-vector product [vᵀ·a] — one step of a
    discrete-time Markov chain when [a] is a transition matrix. *)

val solve : t -> Vec.t -> Vec.t
(** [solve a b] solves [a·x = b] by Gaussian elimination with partial
    pivoting.  Raises [Invalid_argument] on a non-square [a] or shape
    mismatch, and [Failure] on a (numerically) singular system. *)

val pp : Format.formatter -> t -> unit
