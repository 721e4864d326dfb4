(** Network-size approximation — one of the building blocks the paper's
    conclusions (§4) propose on top of its machinery.

    The estimator runs {!Estimation} and converts the returned round
    index [i] into the size guess [n̂ = 2^(2^i)].  By Lemma 2.8, w.h.p.
    [i ∈ [log log n − 1, max{log log n, log T} + 1]], hence for
    [T ≤ log n] the guess satisfies [√n ≤ n̂ ≤ n⁴] — a polynomial
    approximation obtained {e despite} adaptive jamming, sufficient to
    seed protocols that need a ballpark of [log n].  (If a [Single]
    happens along the way, a leader has been elected and can coordinate
    an exact count.) *)

type outcome =
  | Estimate of { round : int; n_hat : float; slots : int }
  | Leader_elected of { slots : int }
  | Exhausted of { slots : int }  (** hit the slot cap before returning *)

val pp_outcome : Format.formatter -> outcome -> unit

val run :
  ?threshold:int ->
  n:int ->
  rng:Jamming_prng.Prng.t ->
  adversary:Jamming_adversary.Adversary.t ->
  budget:Jamming_adversary.Budget.t ->
  max_slots:int ->
  unit ->
  outcome
(** Simulate {!estimator} over [n] stations on the uniform engine; the
    outcome is replayed from the slot records through an observer. *)

val estimator : ?threshold:int -> unit -> Estimation.state Jamming_sim.Aggregate.protocol
(** Function 2 ({!Estimation.step}) as a description that reports
    [Elected] when a round returns {e or} a [Single] occurs — either
    way the estimator is done.  Requires [threshold >= 1]. *)

val within_lemma_2_8_band : round:int -> n:int -> window:int -> bool
(** Whether [round] lies in [\[log log n − 1, max{log log n, log T} + 1\]]. *)

(** {1 Refinement}

    {!run} only brackets [n] within a power tower ([√n … n⁴]).  The
    refinement below sharpens it to a constant factor, {e still under
    jamming}, by probing a geometric grid of transmission probabilities
    [q_j = 2^{−j}] and inverting Null frequencies.  Jamming scales every
    frequency by the same clear-slot rate, so taking the {e ratio} to
    the observed plateau [c ≈ ε·(jam-free rate)] cancels it:
    [(1−q_j)^n = f_j / c ⇒ n ≈ 2^j · ln(c/f_j)].  One-sided caveat: an
    adversary that jams {e the probe rounds unevenly} (saving budget for
    small-[j] rounds) can bias the estimate; the A-series bench measures
    the bias under the standard zoo.  This estimator is this
    reproduction's extension, not the paper's. *)

type refined =
  | Refined of {
      n_hat : float;  (** constant-factor estimate of [n] *)
      clear_fraction : float;  (** the observed Null plateau *)
      probes : int;  (** number of [q_j] levels visited *)
      slots : int;
      leader_elected : bool;
          (** the sweep crosses the Single-rich zone (q ≈ 1/n) on its
              way to the Null plateau, so it usually elects a leader as
              a by-product — it keeps probing regardless *)
    }
  | Refine_failed of { slots : int }  (** no usable plateau within the cap *)

val pp_refined : Format.formatter -> refined -> unit

val refine :
  ?slots_per_probe:int ->
  n:int ->
  rng:Jamming_prng.Prng.t ->
  adversary:Jamming_adversary.Adversary.t ->
  budget:Jamming_adversary.Budget.t ->
  max_slots:int ->
  unit ->
  refined
(** Runs {!prober} on the uniform engine and inverts the Null
    frequencies it recorded (replayed from the slot records).
    [slots_per_probe] (default 128) trades slots for estimate
    variance. *)

type probe
(** The prober's state: current level, per-probe tallies, the
    frequencies recorded so far. *)

val prober : ?slots_per_probe:int -> unit -> probe Jamming_sim.Aggregate.protocol
(** The probe sweep as a description: transmit with [2^−j] for
    [slots_per_probe] slots per level [j = 1, 2, …], recording each
    level's Null frequency, and report [Elected] once the plateau is
    confirmed (or [j] reaches 60).  Requires [slots_per_probe >= 8]. *)
