(** A small text format for churn traces ([.churn] files).

    One event per line, applied in order by [mmfair churn]; [#] starts
    a comment; blank lines are ignored.  Names refer to the
    description the network was parsed from ({!Net_parser.t}):

    {v
    join SESSION NODE [w=FLOAT]   # add a receiver on NODE
    leave SESSION NODE            # remove the receiver on NODE
    rho SESSION FLOAT|inf         # replace the session's rho
    cap LINK FLOAT                # replace the link's capacity

    batch                         # a burst applied as ONE epoch:
      join SESSION NODE           #   events between batch and end
      cap LINK FLOAT              #   coalesce into a single re-solve
    end                           #   (Mmfair_dynamic.Batch.apply)
    v}

    A [batch ... end] block groups events into one
    {!Mmfair_dynamic.Batch} application: join/leave pairs on one node
    net out, repeated [rho]/[cap] writes keep the last value, and the
    union fairness component is re-solved once.  Blocks cannot nest
    and must contain at least one event.

    Receivers are named by node, not index, so a trace stays valid as
    earlier leaves shift in-session indices.  Parsing validates names
    and literals with line-numbered diagnostics; whether an event
    type-checks against the {e evolving} network (e.g. a [leave] of a
    receiver that already left) is only known at replay time and is
    reported by the engine then. *)

type item = Single of Mmfair_dynamic.Event.t | Batch of Mmfair_dynamic.Event.t list
(** One replay step: a lone event, or a [batch ... end] block's events
    in file order. *)

exception Parse_error of int * string
(** Line number (1-based) and message. *)

val find_name : lineno:int -> string -> string array -> string -> int
(** [find_name ~lineno what names name] is the first index of [name]
    in [names].  Raises {!Parse_error} [(lineno, "unknown WHAT \"NAME\"")]
    when it is absent: the name lookup of traces and of churnd's
    queries. *)

type line = Blank | Event of Mmfair_dynamic.Event.t | Batch_open | Batch_end
(** One classified input line: nothing (blank / comment-only), a churn
    event, or a [batch] / [end] block delimiter. *)

val parse_line : Net_parser.t -> lineno:int -> string -> line
(** Classify a single raw line (comments stripped, whitespace
    trimmed).  Raises {!Parse_error} carrying [lineno] on an unknown
    directive, unknown name, or malformed literal — exactly the
    diagnostics {!parse_items} would report for the same text.  This
    is the streaming entry point: the serving daemon feeds it one line
    at a time as bytes arrive, with [lineno] counted per connection. *)

type batch_state = (int * Mmfair_dynamic.Event.t list) option
(** Accumulator for [batch ... end] structure across consecutive
    {!line}s: [Some (opening line, events in reverse)] while inside a
    block, [None] outside.  Start at [None]. *)

val step_line : batch_state -> lineno:int -> line -> batch_state * item option
(** Fold one classified line through the block grammar, yielding a
    completed {!item} when the line finishes one (a lone event outside
    a block, or [end] closing a block).  Raises {!Parse_error} on a
    nested [batch], an [end] without a matching [batch], or an empty
    block (reported at the opening line). *)

val close_batch : batch_state -> unit
(** Assert end-of-input state: raises {!Parse_error} at the opening
    line if a [batch] block was left unclosed. *)

val parse_items : Net_parser.t -> string -> item list
(** The trace's replay steps.  Raises {!Parse_error} on an unknown
    directive, unknown session/node/link name, a malformed or
    out-of-range literal ([rho ≤ 0], non-finite capacity, non-positive
    weight), a nested [batch], an [end] without a [batch], an empty
    block, or a [batch] left unclosed at end of input (reported at the
    opening line) — each with the offending line number. *)

val parse_items_file : Net_parser.t -> string -> item list
(** Reads the file and applies {!parse_items}.  Raises [Sys_error]
    when unreadable. *)

val flatten : item list -> Mmfair_dynamic.Event.t list
(** The trace's events in application order, batch structure erased. *)

val render : ?names:Net_parser.t -> Mmfair_dynamic.Event.t list -> string
(** A [.churn] document of lone events, one line per event, that
    {!parse_items} reconstructs into the same events.  Without [names],
    uses the [n<i>]/[l<j>]/[s<i>] conventions of {!Net_parser.render},
    so generated traces pair with rendered networks. *)

val example : string
(** A self-contained example trace over the Figure-2 network (including
    a [batch] block), suitable for [--help] output and tests. *)
