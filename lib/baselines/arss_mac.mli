(** The robust MAC protocol of Awerbuch, Richa, Scheideler, Schmid and
    Zhang ("Principles of robust medium access and an application to
    leader election", ACM Transactions on Algorithms 10(4), 2014) — the
    paper's reference point [3].

    Every station keeps a probability [p ≤ p_hat], a threshold [t_v] and
    a counter [c_v].  Each round it transmits with probability [p], then:
    - on [Null]: [p ← min{(1+γ)·p, p_hat}];
    - on [Single]: [p ← p/(1+γ)] and [t_v ← max{t_v − 1, 1}];
    - the counter advances, and when [c_v > t_v] it resets; if the last
      [t_v] rounds contained neither a [Null] nor a [Single],
      [p ← p/(1+γ)] and [t_v ← t_v + 2].

    The protocol provably achieves constant throughput against a
    (T, 1−ε)-bounded adversary, and yields leader election in
    [O(log⁴ n)] w.h.p. — the bound our paper's §1.2 improves to
    [O(log n)].  Crucially it {e requires} the global-knowledge
    parameter [γ = O(1/(log T + log log n))]; we compute it from the
    true [n] and [T] (an advantage LESK does not get, which only
    strengthens the comparison).

    Used here in strong-CD as a first-Single selection protocol, exactly
    as LESK is, so the E8 comparison is like for like. *)

type config = {
  gamma : float;  (** multiplicative step, the [γ] above *)
  p_hat : float;  (** probability cap; the ARSS analysis wants ≤ 1/24 *)
  initial_p : float;
  initial_threshold : int;
}

val config : n:int -> window:int -> config
(** The γ the ARSS analysis prescribes for a network of size [n] facing
    window [T]: [γ = 1/(8·(log₂ T + log₂ log₂ n + 1))], [p_hat = 1/24]. *)

type state
(** [p], [t_v], [c_v] and whether the current counter window saw a
    [Null]. *)

val protocol : config -> state Jamming_sim.Aggregate.protocol
(** The MAC as a pure description, used as a first-[Single] selection
    protocol: a [Single] elects.  Validates [config] ([γ > 0],
    [0 < initial_p ≤ p_hat ≤ 1], [initial_threshold ≥ 1]). *)

val expected_time_bound : n:int -> float
(** The [log⁴ n] shape for normalising E8. *)
