(** Population-counting engine: O(#classes) per slot, independent of n.

    In a uniform-phase protocol (LESK, LESU, Estimation) every station
    in the same phase transmits with the same probability, so a slot's
    outcome law depends only on the {e population of each probability
    class}.  This engine tracks [(state, count)] classes instead of
    individual stations: each slot draws one exact
    Binomial([count], [p]) transmit count per class
    ({!Jamming_prng.Sample.binomial}), resolves the channel from the
    total, and splits every class into its transmitting and listening
    subgroups (which may perceive the slot differently under weak
    collision detection).  Equal resulting states are fused back into
    one class, so under [Strong_cd] a uniform protocol stays at exactly
    one class forever and a slot costs one binomial draw — election at
    n = 10⁹ runs in milliseconds.

    The binomial is a sufficient statistic for the per-class
    transmitter count, and the dispatcher behind
    {!Jamming_prng.Sample.binomial} is exact in every regime, so the
    joint law of the channel-state trajectory is {e identical} to the
    per-station engines' — per-station RNG streams necessarily differ,
    so agreement is distributional, not bitwise (differentially tested
    against [Engine.run] by KS in the suite).

    Like the uniform engine, no per-station arrays exist:
    [result.statuses] is [[||]], [max_station_transmissions] is [0],
    and the leader id is sampled uniformly (stations in a class are
    exchangeable, so the lone successful transmitter's identity is
    uniform over ids). *)

type 'c outcome =
  | Continue of 'c  (** keep running in (possibly new) state ['c] *)
  | Elected  (** station terminates this slot; its status follows
                 {!distributed}: Leader iff it transmitted *)

type 'c protocol = {
  name : string;
  init : 'c;  (** every station starts here *)
  tx_prob : 'c -> float;  (** transmit probability of the state *)
  step : 'c -> Jamming_channel.Channel.state -> 'c outcome;
      (** transition on the {e perceived} channel state; must be pure *)
  compare : 'c -> 'c -> int;
      (** total order on states; equal states are fused into one class,
          so it must identify states with identical future behaviour *)
}
(** A pure description of a uniform protocol — the one form every
    protocol in the library is written in.  A value carries no hidden
    mutable state, so one description drives a whole population: the
    uniform engine ({!Uniform_engine.run}), the closure stations
    ({!distributed}), this counting engine ({!run}) and the weak-CD
    Notification machine all step the same value.  An engine stops
    stepping a station (or a class) at the [Elected] its [step]
    returns. *)

type packed = Packed : 'c protocol -> packed
(** Existential wrapper so heterogeneous protocols share one engine
    spec type. *)

val name : packed -> string

val distributed : 'c protocol -> Jamming_station.Station.factory
(** The truly distributed implementation, for the exact engine: every
    station holds a private copy of the state, advances it with [step]
    on its {e own} perceived channel state, and flips its own coin with
    [tx_prob].  In strong-CD all copies stay equal.  When [step]
    returns [Elected] the station terminates, as [Leader] if it
    transmitted in that slot and as [Non_leader] otherwise.  (In
    weak-CD a transmitter never perceives [Single]; use
    [Jamming_core.Notification] to close that gap.) *)

val run :
  ?start_slot:int ->
  ?energy:bool ->
  ?observers:Observer.t list ->
  ?cd:Jamming_channel.Channel.cd_model ->
  rng:Jamming_prng.Prng.t ->
  n:int ->
  protocol:'c protocol ->
  adversary:Jamming_adversary.Adversary.t ->
  budget:Jamming_adversary.Budget.t ->
  max_slots:int ->
  unit ->
  Metrics.result
(** Run an election over [n] stations ([n >= 1]) until every station
    terminates or [max_slots] is reached.  [completed] means the whole
    population terminated; [elected] additionally requires exactly one
    leader.  Observers see exact transmitter counts
    ([Metrics.Exact total]) and true leader counts every slot.

    [energy] attaches an [Energy.summary] to the result, built from
    one [(awake, count)] group per class-retirement event — cost
    independent of [n], and bit-exact against the exact engine's meter
    for the shipped protocols (stations retire in whole classes and
    never sleep).  The random streams are untouched either way. *)
