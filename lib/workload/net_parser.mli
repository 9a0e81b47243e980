(** A small text format for describing networks.

    Lets the CLI (and users' scripts) define a network without writing
    OCaml.  Line-based; [#] starts a comment; blank lines are ignored.

    {v
    # links create their endpoints implicitly
    link l1 a b 5.0
    link l2 b c 2.0

    # session NAME single|multi [rho=FLOAT] [v=FLOAT] sender=NODE receivers=N1,N2,...
    session s1 single rho=100 sender=a receivers=c
    session s2 multi  v=2     sender=a receivers=b,c
    v}

    [v=FLOAT] attaches a [Scaled v] link-rate function (redundancy [v
    ≥ 1]); omitted means efficient.  Node and link names are arbitrary
    identifiers. *)

type t = {
  net : Mmfair_core.Network.t;
  node_names : string array;      (** Index = graph node id. *)
  link_names : string array;      (** Index = link id. *)
  session_names : string array;   (** Index = session index. *)
}

exception Parse_error of int * string
(** Line number (1-based) and message. *)

val parse_string : string -> t
(** Raises {!Parse_error} on malformed input — including non-finite,
    zero or negative capacities, [rho ≤ 0] or NaN, [v < 1], empty
    receiver lists, unknown node names, and a receiver co-located with
    its sender, each reported with the offending line number — and
    [Invalid_argument] when the well-formed description still builds an
    invalid network (e.g. unreachable receiver). *)

val tokens : string -> string list
(** The whitespace-separated (space or tab) tokens of one raw line,
    after dropping a [#] comment; [[]] for a blank or comment-only
    line.  The one tokenizer of [.net] descriptions, [.churn] traces
    and the churnd line protocol. *)

val parse_file : string -> t
(** Reads the file and applies {!parse_string}.  Raises [Sys_error]
    when unreadable. *)

val render : Mmfair_core.Network.t -> string
(** [render net] is a description document that {!parse_string}
    reconstructs into an isomorphic network (node names [n<i>], link
    names [l<j>], session names [s<i>]).  Raises [Invalid_argument]
    for networks the format cannot express: [Additive]/[Custom]
    link-rate functions or non-unit weights. *)

val example : string
(** A self-contained example document (the Figure-2 network) suitable
    for [--help] output and tests. *)
