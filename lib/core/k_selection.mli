(** k-selection — the second building block proposed in §4: distinguish
    [k] stations, one after another, under the same (T, 1−ε)-bounded
    adversary.

    Implementation: chained LESK elections on the fast engine.  After a
    [Single], the winner withdraws and the remaining [n − j] stations run
    again; the jamming budget and the adversary persist across rounds
    (the window constraint spans the whole execution).  With
    [warm_start], a new round inherits the previous [u] decreased by 1 —
    the population shrank by one station — instead of restarting at 0,
    which removes the ramp-up of later rounds. *)

type round_result = { winner_index : int; slots : int }

type outcome = {
  rounds : round_result list;  (** in election order; length ≤ k *)
  total_slots : int;
  completed : bool;  (** all [k] rounds finished within the cap *)
}

val run :
  ?warm_start:bool ->
  k:int ->
  n:int ->
  eps:float ->
  rng:Jamming_prng.Prng.t ->
  adversary:Jamming_adversary.Adversary.t ->
  budget:Jamming_adversary.Budget.t ->
  max_slots:int ->
  unit ->
  outcome
(** Requires [1 ≤ k ≤ n].  [max_slots] bounds the whole chain.
    [winner_index] is an index into the population remaining at that
    round (the fast engine does not track identities). *)

val round_protocol :
  eps:float -> round:int -> initial_u:float -> float Jamming_sim.Aggregate.protocol
(** Round [round]'s description: {!Lesk.protocol} started at
    [initial_u] instead of 0.  {!run} replays each round's [u] from the
    slot records to warm-start the next. *)

type weak_cd_outcome = {
  winners : int list;  (** original station ids, in election order *)
  slots : int;
  completed : bool;
}

val run_weak_cd :
  k:int ->
  n:int ->
  eps:float ->
  rng:Jamming_prng.Prng.t ->
  adversary:Jamming_adversary.Adversary.t ->
  budget:Jamming_adversary.Budget.t ->
  max_slots:int ->
  unit ->
  weak_cd_outcome
(** The same chain in the {e weak-CD} model on the exact engine: each
    round is a full LEWK election (so winners actually {e know} they
    won, §3) after which the winner withdraws.  Station identities are
    preserved across rounds.  Requires [1 ≤ k] and [n − k ≥ 2] (every
    LEWK round needs at least 3 participants). *)
