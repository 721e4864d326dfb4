(** O(1)-per-slot simulation of uniform protocols in strong-CD.

    All [n] stations transmit with one common probability, so the channel
    state is sampled directly from the exact transmitter-count trichotomy
    ({!Jamming_prng.Sample.trichotomy}).  This is what makes the paper's
    scaling experiments (n up to 2²⁰) feasible; the exact engine
    cross-validates it at small [n] (see test suite E-ablation). *)

val run :
  ?start_slot:int ->
  ?energy:bool ->
  ?observers:Observer.t list ->
  n:int ->
  rng:Jamming_prng.Prng.t ->
  protocol:'c Aggregate.protocol ->
  adversary:Jamming_adversary.Adversary.t ->
  budget:Jamming_adversary.Budget.t ->
  max_slots:int ->
  unit ->
  Metrics.result
(** Runs the description from [init] — one [tx_prob] and one [step]
    call per slot, on the true channel state — until [step] returns
    [Elected] or [max_slots] elapse.
    Stations flip their coins whether or not the slot is jammed (as in
    the exact engine), but a jammed slot always resolves to [Collision].
    The leader, when elected, is a uniformly random station id.
    [result.transmissions] is the expectation [Σ_slots n·p], and
    [result.statuses] is empty.

    [observers] are notified after every slot and once with the final
    result; this engine has no per-station statuses, so the leader
    count is always reported as [-1] (unknown) — a {!Monitor} attached
    here checks everything except at-most-one-leader.  Observers never
    touch the random stream: results are bit-identical with or without
    them.  A bare per-slot callback belongs in [observers], wrapped
    with {!Observer.of_on_slot}.

    [energy] attaches an O(1) synthesized [Energy.summary]: uniform
    stations never sleep, so all [n] are awake every slot and
    [tx_total] is the expectation the engine already accumulates.  The
    random stream is untouched either way. *)
