(** A minimal JSON value type shared by every document the repo writes
    (metrics snapshots, Chrome traces, JSONL, bench files, the
    stability report) and by every checker that reads one back.
    Deliberately tiny — no external dependency, no streaming; emitters
    that cannot hold the document in memory write fragments with
    {!to_string} on sub-values instead. *)

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

val to_string_indented : t -> string
(** Multi-line rendering for committed documents, newline-terminated:
    one object field or array element per line with a two-space
    indent, except that a container whose members are all scalars
    prints inline ([{ "k": 1, "j": 2 }], [[1, 2]]).  Numbers render as
    in {!to_string}. *)

val fixed : int -> float -> t
(** [fixed digits x] is [Num x] rounded to [digits] decimals, so a
    timing prints as [1234.5] rather than every digit it was measured
    to. *)

exception Bad of string
(** Parse or read failure.  From {!parse} the message carries a byte
    offset; from the readers below it starts with the key path that was
    being read. *)

val parse : string -> t
(** Parse a complete JSON document.  Raises {!Bad} on malformed input
    or trailing garbage.  [\u] escapes are accepted but decoded as
    ['?'] — good enough for schema validation of our own ASCII
    emissions. *)

val member : string -> t -> t option
(** [member key (Obj fields)] is the field's value; [None] on a
    missing key or a non-object. *)

(** {1 Readers}

    Checkers read a document through these.  A [path] is a list of
    object keys from the value given; every failure raises {!Bad} with
    a message that starts with that path in jq notation
    ([.serving.sampler.duty_cycle: want a number >= 0]). *)

val load : string -> t
(** Read and {!parse} a whole file.  Raises {!Bad} when the file cannot
    be read or is not valid JSON. *)

val get : string list -> t -> t
(** The value at [path]; [Bad] when a key is missing or an inner value
    is not an object. *)

val num : ?min:float -> ?above:float -> string list -> t -> float
(** A number at [path], [>= min] and [> above] when given. *)

val str : string list -> t -> string
(** A non-empty string at [path]. *)

val obj : string list -> t -> (string * t) list
(** The fields of the object at [path] (possibly none). *)

val items : string list -> t -> t list
(** The elements of the non-empty array at [path]. *)

val num_or_null : string list -> t -> float option
(** A number ([Some]) or [null] ([None]) at [path]. *)

val each : string list -> (t -> 'a) -> t -> 'a list
(** [each path f v] maps [f] over the non-empty array at [path]; a
    {!Bad} raised by [f] gets the element's path ([.path[i]])
    prepended. *)

val fail : string list -> ('a, unit, string, 'b) format4 -> 'a
(** [fail path fmt] raises {!Bad} with [path] in front of the message —
    for a checker's own gates, so they compose with {!each}. *)
