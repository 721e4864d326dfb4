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
    least one blocker must exist). *)

(** A restartable, station-side instance of the sub-algorithm [A],
    driven on its own local slot sequence. *)
type sub = {
  sub_decide : unit -> Jamming_station.Station.action;
  sub_observe :
    perceived:Jamming_channel.Channel.state -> transmitted:bool -> unit;
}

type sub_factory = rng:Jamming_prng.Prng.t -> sub
(** Called afresh at each interval restart, with a stream split off the
    station's private generator (fresh random choices, as required by §3). *)

val sub_of_uniform : Jamming_station.Uniform.factory -> sub_factory
(** Station-side adaptation of a uniform protocol: a private copy of the
    logic fed with this station's perceived states.  In weak-CD all
    copies remain synchronised until the first [Single] (§3: transmitters
    assume [Collision], which is the truth in every pre-[Single] slot they
    transmit in). *)

type phase =
  | Phase_a1  (** running A in C1; leader still undefined *)
  | Phase_a2  (** leader = false; running A in C2 *)
  | Phase_blocking  (** leader = false; transmitting in every C1 slot *)
  | Phase_announcing  (** leader = true; transmitting in every C3 slot *)
  | Phase_done of Jamming_station.Station.status

val pp_phase : Format.formatter -> phase -> unit

val station :
  ?on_phase:(id:int -> slot:int -> phase -> unit) ->
  sub_factory ->
  Jamming_station.Station.factory
(** Wrap [A] into a full weak-CD leader-election station.  [on_phase] is
    called at every phase transition (used by the example traces and the
    tests).

    This closure-per-station path is kept as the {e differential
    oracle} for {!pool} (the way [Engine.run_reference] backs
    [Engine.run]): the pool must reproduce it bit for bit — same
    random-stream split points, same draw counts, same transition slots
    — for every seed, adversary and observer combination.  It is also
    the path for runs with lifecycle faults or sensing noise, which
    pools do not take.  Fault-free weak-CD call sites should use
    {!pool}. *)

(** {1 Flat station pool}

    The vectorized form of the transformation: one {!subpool} holds the
    sub-algorithm state of all [n] stations in flat arrays, and
    {!pool} adds the Notification phase machine on top — phase codes
    and generation tags in int arrays, one slot classification per slot
    (not per station per call site), one dense active set so finished
    stations cost nothing.  Stream compatibility with the closure path
    is part of the contract: station [i]'s generator is split off the
    run generator in id order, and a sub-instance's stream is split off
    the station's generator exactly when the closure path would call
    [sub_factory]. *)

(** Sub-algorithm state for a whole population.  [sp_reset i] restarts
    station [i]'s instance (the closure path's "fresh [sub]");
    [sp_tx_prob i] is its current transmission probability — it must
    equal, bit for bit, what the closure instance's [tx_prob] would
    return, including after [sp_on_state] updates; [sp_on_state i st]
    feeds it one perceived state. *)
type subpool = {
  sp_reset : int -> unit;
  sp_tx_prob : int -> float;
  sp_on_state : int -> Jamming_channel.Channel.state -> unit;
}

type flat_sub = {
  fs_name : string;
  fs_make : n:int -> subpool;
}
(** A sub-algorithm [A] in population form; the counterpart of
    {!sub_factory}. *)

val pool :
  ?on_phase:(id:int -> slot:int -> phase -> unit) ->
  flat_sub ->
  Jamming_station.Station.pool_factory
(** [pool fsub ~n ~rng] is the population that [n] closure stations
    built from [station fsub' ~rng] would be, state in flat arrays.
    Drive it with [Engine.run_pool].  [on_phase] fires at the same
    (id, slot, phase) points as the closure path's. *)
