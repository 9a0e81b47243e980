(** Persistent vectors with structural sharing.

    A vector is a spine of fixed-size chunks.  An update copies the
    spine once and each chunk it writes once, and shares every other
    chunk with the vector it came from, which stays unchanged.  This is
    how a network's session specs and an allocation's rows move from
    one churn epoch to the next: an epoch that touches a few sessions
    pays for those sessions' chunks plus a spine of [length / 32]
    pointers, not for a copy of every session (DESIGN.md §11).

    Chunks are never written once a vector holding them has been
    returned, so any number of versions may share them. *)

type 'a t

val length : 'a t -> int

val unsafe_spine : 'a t -> 'a array array
(** The chunks themselves, for loops that read many entries: index [i]
    is at [spine.(i lsr 5).(i land 31)].  Every chunk holds 32 entries
    but the last, which holds the rest; a vector of length 0 has no
    chunk.  Chunks may be shared with other vectors (and, after
    {!make}, with each other), so callers must never write to them.
    A read through the spine costs two loads and no call; for a float
    vector it is not boxed, where {!get} returns a boxed float. *)

val get : 'a t -> int -> 'a
(** Raises [Invalid_argument] outside [0 .. length - 1]. *)

val make : int -> 'a -> 'a t
(** [make n x]: every full chunk is one shared array, so this costs
    O(n / 32), not O(n). *)

val init : int -> (int -> 'a) -> 'a t
(** [init n f] calls [f] in index order. *)

val of_array : 'a array -> 'a t
(** A copy: later writes to the array do not show in the vector. *)

val to_array : 'a t -> 'a array

val iteri : (int -> 'a -> unit) -> 'a t -> unit
val fold_left : ('b -> 'a -> 'b) -> 'b -> 'a t -> 'b

val update : 'a t -> ((int -> 'a -> unit) -> unit) -> 'a t
(** [update v edit] is [v] with the writes [edit] makes through the
    setter it is given; [v] itself is unchanged.  The spine is copied
    once and each written chunk once, however many writes land in it,
    so a batch of [k] writes costs O(length / 32 + 32·k) and a write to
    every index O(length).  A later write to an index wins.  The setter
    raises [Invalid_argument] outside [0 .. length - 1] and must not be
    used after [edit] returns. *)

val iter_changed : (int -> 'a -> 'a -> unit) -> 'a t -> 'a t -> unit
(** [iter_changed f a b] calls [f i (get a i) (get b i)], in index
    order, for every index whose elements are not physically equal.
    Chunks the two vectors share are skipped whole, so for two versions
    related by a few updates this costs the spine plus the written
    chunks.  It builds no closure of its own: its one call per changed
    element is [f].  Raises
    [Invalid_argument] when the lengths differ. *)
