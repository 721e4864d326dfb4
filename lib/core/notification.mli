(** The Notification transformation (Function 4, §3): any algorithm [A]
    that obtains a first [Single] w.h.p. in weak-CD becomes a full
    leader-election algorithm with constant-factor overhead, immune
    against the same (T, 1−ε)-bounded adversary (Lemma 3.1).

    Mechanics.  Global slots are split into interval families C1/C2/C3
    ({!Intervals}).  [A] is executed in C1 (restarted fresh, with fresh
    randomness, at every interval C¹ᵢ).  The station [l] that produces
    the first C1-[Single] cannot hear its own success (weak-CD); everyone
    else moves on and re-runs [A] in C2.  When a C2-[Single] occurs:
    - [l] — the only station still watching C1/C2 with [leader]
      undefined — learns it won, and transmits in {e every} C3 slot;
    - every other station ([leader = false]) transmits in every C1 slot
      ("blocking") until it hears a [Single] in C3, then terminates;
      the C2 transmitter [s] keeps running [A] in C2 until the same
      C3-[Single], then terminates.
    Since only [l] transmits in C3, the adversary must expose a
    C3-[Single] within any interval it cannot fully jam; once the
    blockers leave, the first non-jammed C1 slot is [Null] and [l]
    terminates too.  Correct for [n ≥ 3] (the paper's requirement: at
    least one blocker must exist).

    [A] is any pure description ({!Jamming_sim.Aggregate.protocol}:
    [Lesk.protocol], [Lesu.protocol]).  The phase machine is written
    once, over flat arrays: phase codes and generation tags in int
    arrays, each station's state of [A] and its cached transmission
    probability beside them, one slot classification per slot.
    Stations in lockstep share one state value: a small transition
    memo, one entry per perceived channel state, calls [step] and
    [tx_prob] once per group rather than once per station, which is
    exact because [step] is pure.  {!pool} drives the machine for a
    whole population and {!station} for one station; they are
    bit-identical per seed.  The test suite keeps a closure-per-station
    implementation, over a closure form of the description of its own,
    as the differential oracle both are compared against. *)

type phase =
  | Phase_a1  (** running A in C1; leader still undefined *)
  | Phase_a2  (** leader = false; running A in C2 *)
  | Phase_blocking  (** leader = false; transmitting in every C1 slot *)
  | Phase_announcing  (** leader = true; transmitting in every C3 slot *)
  | Phase_done of Jamming_station.Station.status

val pp_phase : Format.formatter -> phase -> unit

(** {1 Drivers} *)

val station :
  ?on_phase:(id:int -> slot:int -> phase -> unit) ->
  'c Jamming_sim.Aggregate.protocol ->
  Jamming_station.Station.factory
(** Wrap [A] into a full weak-CD leader-election station: the machine
    at [n = 1], on the station's own generator (each sub-instance's
    stream is split off it).  An instance of [A] starts at [init] at
    every interval restart; once [step] returns [Elected] it is frozen
    for the rest of the interval, keeping its state and transmission
    probability.  [on_phase] is called at every phase transition with
    the station's [id] (used by the example traces and the tests).

    This is the path for runs with lifecycle faults, sensing noise or
    churn, which pools do not take: every [decide] and [observe]
    classifies its own slot, so a station need not be called every
    slot.  Fault-free weak-CD call sites should use {!pool}. *)

val pool :
  ?on_phase:(id:int -> slot:int -> phase -> unit) ->
  'c Jamming_sim.Aggregate.protocol ->
  Jamming_station.Station.pool_factory
(** [pool a ~n ~rng] is the population that [n] stations built by
    [station a] with [Engine.make_stations] over [rng] would be:
    station [i]'s generator is split off [rng] in id order.  Drive it
    with [Engine.run_pool].  On top of the machine it keeps one dense
    active set, so finished stations cost nothing, and skips slots
    outside C1 while every active station is still in A1 — sound only
    for a whole population, where nobody can transmit there.
    [on_phase] fires at the same (id, slot, phase) points as the
    stations'. *)
