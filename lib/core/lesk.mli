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

val step_denominator : where:string -> ?a:float -> eps:float -> unit -> float
(** The one parameter check every use of LESK goes through: [eps] in
    [(0, 1]] and the collision step denominator [a] (default the
    paper's [8/ε]) at least 1.  Returns [a]; [where] names the caller
    in the [Invalid_argument] message.  Replicas of the u-walk
    ({!Taxonomy}, {!Adaptive_jammers}, experiment F1) read [a] from
    here and step {!step}. *)

val tx_prob : float -> float
(** [tx_prob u = 2^−u]. *)

val step :
  a:float -> float -> Jamming_channel.Channel.state -> float Jamming_sim.Aggregate.outcome
(** Algorithm 1's transition on the estimate [u] — the single place it
    is written: [Null] steps to [max (u − 1) 0], [Collision] to
    [u + 1/a], [Single] elects.  Exposed so protocols built from LESK
    runs ({!Lesu}) and replicas of the u-walk step the same code. *)

val protocol : ?a:float -> eps:float -> unit -> float Jamming_sim.Aggregate.protocol
(** LESK as a pure description: state [u] starting at 0, {!tx_prob}
    and {!step}.  Requires [0 < eps <= 1]; [a] overrides the collision
    step denominator (default the paper's [8/ε], must be [>= 1]); the
    step-size ablation bench uses it, including the symmetric [a = 1]
    variant that the adversary can drive to divergence (§2.1).  This
    one value runs on every engine — the uniform engine, the closure
    stations below, the counting engine — and {!Lewk} runs it under
    {!Notification}. *)

val station : eps:float -> Jamming_station.Station.factory
(** {!protocol} as distributed per-station closures
    ([Aggregate.distributed]) for the exact engine (strong-CD
    leadership semantics). *)

val aggregate : ?a:float -> eps:float -> unit -> Jamming_sim.Aggregate.packed
(** {!protocol}, packed for the population-counting
    {!Jamming_sim.Aggregate} engine. *)

val expected_time_bound : eps:float -> n:int -> window:int -> float
(** The Theorem 2.6 shape [max{T, log n / (ε³ log₂(1/ε))}] (no hidden
    constant), used by experiments to normalise measured times. *)
