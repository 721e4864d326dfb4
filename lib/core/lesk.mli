(** LESK — Leader Election in Strong-CD with Known ε (Algorithm 1, §2.1).

    Every station keeps a common estimate [u] of [log₂ n] and transmits
    with probability [2^−u].  A [Null] slot means the estimate is too
    high: [u ← max (u − 1, 0)].  A [Collision] (which the adversary can
    fake by jamming) is only worth a small correction: [u ← u + 1/a]
    with [a = 8/ε], so that each honest [Null] — which the adversary can
    never fake — neutralises about [8/ε] jammed slots.  The protocol
    stops at the first [Single]; its transmitter is the leader.

    Theorem 2.6: election in [O(max{T, log n / (ε³ log(1/ε))})] slots
    w.h.p. against any (T, 1−ε)-bounded adversary. *)

val config_valid : eps:float -> bool

val tx_prob : float -> float
(** [tx_prob u = 2^−u]. *)

val step :
  a:float -> float -> Jamming_channel.Channel.state -> float Jamming_sim.Aggregate.outcome
(** Algorithm 1's transition on the estimate [u] — the single place it
    is written: [Null] steps to [max (u − 1) 0], [Collision] to
    [u + 1/a], [Single] elects.  Exposed so protocols built from LESK
    runs ({!Lesu}) step the same code. *)

val protocol : ?a:float -> eps:float -> unit -> float Jamming_sim.Aggregate.protocol
(** LESK as a pure description: state [u] starting at 0, {!tx_prob}
    and {!step}.  Requires [0 < eps <= 1]; [a] overrides the collision
    step denominator (default the paper's [8/ε], must be [>= 1]); the
    step-size ablation bench uses it, including the symmetric [a = 1]
    variant that the adversary can drive to divergence (§2.1).  Every
    form below is derived from this description or steps through
    {!step}, and {!Lewk} runs it under {!Notification}. *)

module Logic : sig
  (** The per-station state machine as a mutable record, for
      instrumentation and for adversaries that simulate the protocol
      (the paper's adversary knows the protocol and the channel
      history).  [on_state] applies {!step}. *)

  type t

  val create : ?initial_u:float -> ?a:float -> eps:float -> unit -> t
  (** Parameters as in {!protocol}.  [initial_u] (default 0, the
      paper's choice) lets chained elections warm-start from a previous
      estimate — used by the {!K_selection} extension. *)

  val eps : t -> float

  val a : t -> float
  (** The step denominator [a = 8/ε]. *)

  val u : t -> float
  (** Current estimate of [log₂ n]. *)

  val tx_prob : t -> float
  (** [2^−u]. *)

  val elected : t -> bool

  val on_state : t -> Jamming_channel.Channel.state -> unit
  (** Advance on the state of the slot ([Null] / [Single] / [Collision]). *)
end

val uniform : ?a:float -> eps:float -> Jamming_station.Uniform.factory
(** [Jamming_sim.Aggregate.to_uniform] of {!protocol}, for the fast
    engine. *)

val station : eps:float -> Jamming_station.Station.factory
(** {!protocol} as distributed per-station closures
    ([Uniform.distributed]) for the exact engine (strong-CD leadership
    semantics). *)

val aggregate : ?a:float -> eps:float -> unit -> Jamming_sim.Aggregate.packed
(** {!protocol}, packed for the population-counting
    {!Jamming_sim.Aggregate} engine. *)

val expected_time_bound : eps:float -> n:int -> window:int -> float
(** The Theorem 2.6 shape [max{T, log n / (ε³ log₂(1/ε))}] (no hidden
    constant), used by experiments to normalise measured times. *)
