(** A minimal JSON value type shared by every telemetry exporter and
    validator (metrics snapshots, Chrome traces, the bench trajectory
    schema checks).  Deliberately tiny — no external dependency, no
    streaming; emitters that cannot hold the document in memory write
    fragments with {!to_string} on sub-values instead. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact (single-line) rendering.  Numbers use the shortest decimal
    form that round-trips; non-finite numbers degrade to [null] (JSON
    has no Inf/NaN). *)

val escape : string -> string
(** The body of a JSON string literal for [s] (no surrounding quotes):
    quote, backslash and control characters escaped, every other byte
    as-is — for emitters that write a document by hand. *)

exception Bad of string
(** Parse failure, with a byte offset in the message. *)

val parse : string -> t
(** Parse a complete JSON document.  Raises {!Bad} on malformed input
    or trailing garbage.  [\u] escapes are accepted but decoded as
    ['?'] — good enough for schema validation of our own ASCII
    emissions. *)

val member : string -> t -> t option
(** [member key (Obj fields)] is the field's value; [None] on a
    missing key or a non-object. *)
