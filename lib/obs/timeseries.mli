(** Fixed-capacity time series with windowed downsampling, plus the
    sampler that feeds them from a {!Registry}.

    A series is a bounded sequence of {e windows}, each summarizing
    the observations that landed in it as count/min/max/mean/last.
    Fresh observations open one-sample windows; when a series hits its
    capacity, adjacent windows are merged pairwise — halving the count
    and doubling each window's span — so a fixed memory budget covers
    an ever-longer history, dense at the recent end and geometrically
    coarser toward the past.  This is what makes minutes-long soak
    telemetry (the Bramson stability workloads) hold in O(capacity)
    memory per metric.

    The {!sample} walk and the JSONL export are deterministic given
    the observation stream and timestamps: series and readout entries
    are sorted by name, so two identical probe streams export
    byte-identical files. *)

type point = {
  p_t : float;  (** Window start time (first observation's timestamp). *)
  p_count : int;  (** Observations merged into this window. *)
  p_min : float;
  p_max : float;
  p_sum : float;
  p_last : float;  (** The window's most recent observation. *)
}

val mean : point -> float
(** [p_sum /. p_count]; 0 for an (impossible in practice) empty window. *)

type t

val create : ?capacity:int -> unit -> t
(** A fresh collection; every series holds at most [capacity] (default
    256) windows.  Raises [Invalid_argument] when [capacity < 2]. *)


val observe : t -> ts:float -> string -> float -> unit
(** Append one observation at time [ts] to the named series (created
    on first use), downsampling first if the series is full.  Callers
    must feed each series monotonically non-decreasing timestamps —
    the sampler does. *)

val points : t -> string -> point list
(** The named series' windows, oldest first (empty for an unknown
    name). *)

val sample : ?gc:bool -> t -> ts:float -> Registry.t -> (string * float) list
(** One sampler tick: refresh the registry's GC gauges
    ([gc.minor_collections], [gc.major_collections], [gc.heap.words]
    from [Gc.quick_stat]; suppress with [~gc:false] for deterministic
    tests), take the registry's flat {!Registry.sample} readout,
    append every entry to its series at time [ts], and return the
    readout (already name-sorted — ready for {!tick_line}). *)

val schema_id : string
(** ["mmfair.series/v1"] — the [schema] field of {!header_line}. *)

val header_line : string
(** The one-line JSON header opening every series JSONL stream:
    [{"schema":"mmfair.series/v1"}]. *)

val tick_line : ts:float -> (string * float) list -> string
(** One sampler tick as a JSONL line: [{"t":ts,"sample":{name:value,…}}]
    (no trailing newline).  Entries are emitted in the given order —
    pass {!sample}'s readout for deterministic name-sorted output. *)

val to_jsonl : t -> string
(** Dump the whole collection: {!header_line}, then one line per
    window — [{"series":name,"t":…,"count":…,"min":…,"max":…,"mean":…,
    "last":…}] — series sorted by name, windows oldest first.
    Deterministic: identical observation streams yield byte-identical
    dumps. *)
