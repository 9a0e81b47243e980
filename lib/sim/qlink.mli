(** A capacitated store-and-forward link with a finite drop-tail
    queue and optional congestion marking.

    The Section-4 experiments follow the paper in modelling loss as an
    exogenous Bernoulli process.  This link model closes the loop
    instead: packets queue for a transmitter of fixed rate, the queue
    has finite room, and overflow is the only loss source.  A marking
    policy can flag packets as congestion signals before any loss
    happens — the paper explicitly lists "a bit set within a packet by
    the network" (ECN, RFC 2481) among its congestion events:

    - {!marking.Threshold}: mark when the instantaneous queue reaches
      a fixed depth;
    - {!marking.Red}: Random Early Detection — mark probabilistically
      as the {e exponentially averaged} queue moves between two
      thresholds (Floyd & Jacobson's classic AQM), which avoids the
      synchronized reactions a hard threshold provokes. *)

type marking =
  | No_marking
  | Threshold of int
      (** Mark when ≥ this many packets are queued at arrival. *)
  | Red of { min_th : float; max_th : float; max_p : float; weight : float }
      (** Mark with probability 0 below [min_th] (average queue),
          rising linearly to [max_p] at [max_th], and 1 above it.
          [weight] is the averaging weight (typical 0.002–0.05). *)

type t

val create :
  capacity:float ->
  ?delay:float ->
  ?buffer:int ->
  ?marking:marking ->
  ?rng:Mmfair_prng.Xoshiro.t ->
  unit ->
  t
(** [capacity] in packets per second (must be positive); [delay] is
    the propagation delay in seconds (default 0.001); [buffer] is the
    queue limit in packets including the one in service (default 32,
    ≥ 1).  [marking] defaults to {!No_marking}; [Red] requires an
    [rng] (raises [Invalid_argument] otherwise). *)

type verdict =
  | Accepted of { delivery : float; marked : bool }
      (** Delivery time at the far end (service completion +
          propagation) and whether the marking policy flagged the
          packet. *)
  | Dropped
      (** Queue full — the packet is lost here. *)

val offer : t -> now:float -> verdict
(** Offer one packet to the link at time [now].  Updates the queue
    and marking state.  [now] must not precede a previous call's
    [now] (FIFO links; raises [Invalid_argument] on time travel). *)

val queue_length : t -> now:float -> int
(** Packets queued or in service at time [now]. *)

val avg_queue : t -> float
(** The RED exponentially averaged queue (0 for other policies). *)

val offered : t -> int
(** Packets offered so far. *)

val dropped : t -> int
(** Packets dropped so far. *)

val marked : t -> int
(** Packets marked so far. *)

val utilization : t -> now:float -> float
(** Busy time divided by elapsed time (0 before any packet). *)
