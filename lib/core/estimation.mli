(** The jamming-robust size/window estimator (Function 2, §2.3).

    Round [r = 1, 2, …] consists of [2^r] slots in which every station
    transmits with probability [2^−2^r].  When a round produces at least
    [L] [Null]s, its index is returned.

    Lemma 2.8 (for [L = 2], [n ≥ 115]): w.h.p. the function either
    produces a [Single] on the channel (electing a leader on the spot) or
    returns [i] with [log log n − 1 ≤ i ≤ max{log log n, log T} + 1], in
    [O(max{log n, T})] slots, against any (T, 1−ε)-bounded adversary.
    Intuition: while [2^−2^r ≥ 1/√n] a [Null] is vanishingly unlikely, so
    small rounds cannot return; once the round is long enough the
    adversary cannot jam it all, and with [p ≤ 1/n²] the exposed slots
    are [Null] w.h.p. *)

type state = {
  round : int;  (** current round, from 1 *)
  slots_left : int;  (** slots remaining in it *)
  nulls : int;  (** [Null]s seen in it *)
}
(** Function 2's progress, as a pure value. *)

type outcome =
  | Running of state
  | Returned of int  (** a round accumulated [threshold] [Null]s *)
  | Singled  (** a [Single] occurred: a leader was elected on the spot *)

val init : state
(** Round 1, with its 2 slots ahead. *)

val tx_prob : state -> float
(** [2^−2^round]. *)

val step : threshold:int -> state -> Jamming_channel.Channel.state -> outcome
(** Function 2's transition on one channel state — the single place it
    is written ({!Lesu.protocol}, {!protocol} and [Size_approx.run]
    step it).  [threshold] is the paper's [L] (the paper uses [L = 2]); the
    callers check that it is at least 1. *)

val protocol : ?threshold:int -> unit -> outcome Jamming_sim.Aggregate.protocol
(** Estimation as a uniform protocol, stepping {!step} from {!init}:
    [Elected] on [Single]; once a round has returned, the state stays
    [Returned] with probability 0 (the caller is expected to stop it —
    used standalone only in tests and the lesim CLI).  [Singled] is
    never a state.  Requires [threshold >= 1]. *)
