(** Binary exponential backoff, the textbook contention-resolution rule
    (and the core of 802.11's DCF, whose jamming fragility reference [4]
    of the paper demonstrates experimentally).

    Uniform formulation: transmit with probability [2^{−b}] where [b]
    counts the [Collision]s seen so far, decremented on [Null].  A
    (T, 1−ε)-bounded jammer feeds it fake [Collision]s at will, driving
    the probability to zero — the canonical example of a protocol whose
    estimate the adversary can force to diverge, which is exactly what
    LESK's asymmetric ±(1 vs ε/8) steps prevent (§2.1).  Experiments
    E8/E9 show the blow-up. *)

val protocol : int Jamming_sim.Aggregate.protocol
(** The rule as a pure description.  The state is [b], capped at 60 so
    that [2^{−b}] stays representable; a [Single] elects. *)

val known_n : n:int -> unit Jamming_sim.Aggregate.protocol
(** The "omniscient" memoryless protocol: transmit with probability
    [1/n] forever.  Optimal per-slot success probability [≈ 1/e] on a
    clear channel; used as the reference algorithm in the lower-bound
    experiment E4 (Lemma 2.7 holds even for it).  Requires [n >= 1]. *)
