(** Sparse matrices in compressed-sparse-row form.

    The exact Markov chains for the Deterministic protocol have state
    spaces in the thousands with only a handful of successors per
    state; CSR keeps the stationary-distribution power iteration linear
    in the number of transitions. *)

type t
(** An immutable [rows × cols] sparse matrix. *)

type builder
(** Mutable triplet accumulator used to assemble a matrix. *)

val builder : rows:int -> cols:int -> builder
(** A fresh builder for a [rows × cols] matrix. *)

val add : builder -> int -> int -> float -> unit
(** [add b i j x] accumulates [x] into entry [(i, j)].  Repeated adds
    to the same entry sum.  Raises [Invalid_argument] out of range. *)

val finalize : builder -> t
(** Freeze the builder into CSR form.  Zero entries are dropped. *)

val rows : t -> int
val cols : t -> int

val nnz : t -> int
(** Number of stored (structurally non-zero) entries. *)

val get : t -> int -> int -> float
(** [get m i j] is entry [(i, j)] ([0.] if not stored).  Logarithmic in
    the row's entry count. *)

val vec_mul : Vec.t -> t -> Vec.t
(** [vec_mul v m] is [vᵀ·m] — one Markov step for a CSR transition
    matrix. *)

val row_sums : t -> Vec.t
(** Per-row entry sums — each should be 1 for a stochastic matrix. *)

val iter_row : t -> int -> (int -> float -> unit) -> unit
(** [iter_row m i f] applies [f j x] to each stored entry of row [i]. *)
