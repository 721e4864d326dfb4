(** LESU — Leader Election in Strong-CD with Unknown ε (Algorithm 2, §2.3).

    Neither [ε] nor [T] (nor [n]) is known.  LESU first runs
    {!Estimation} to learn [t₀ ≈ c·max{log n, T}] and then interleaves
    time-boxed executions of {!Lesk} with guessed tolerances
    [ε_j = 2^{−j/3}]: phase [i] runs [LESK(ε_j)] for
    [⌈3·2^i·t₀/j⌉] slots, for [j = 1 … i].  Any [Single] anywhere elects
    the leader.

    Theorem 2.9 (n ≥ 115): w.h.p. election in
    [O((log log(1/ε)/ε³)·log n)] when [T ≤ log n/(ε³ log(1/ε))], and in
    [O(max{log log(T/(ε log n)), log(1/ε)·log log(1/ε)}·T)] otherwise.

    The constant [c] is existentially quantified in the paper (via
    Theorem 2.6); here it is a configuration knob whose default is
    calibrated in EXPERIMENTS.md. *)

type config = {
  c : float;  (** multiplier for [t₀ = c·2^(1+Estimation(2))]; default 4.0 *)
  threshold : int;  (** Estimation's [L]; the paper uses 2 *)
}

val default_config : config

type stage =
  | Estimating of int  (** current estimation round *)
  | Electing of { i : int; j : int; eps_hat : float }

type state
(** Estimation's progress, or the current time-boxed LESK phase with
    its estimate [u]. *)

val protocol : ?config:config -> unit -> state Jamming_sim.Aggregate.protocol
(** LESU as a pure description — the single place its transitions are
    written.  Estimation rounds first ({!Estimation.step}); when one
    returns, [t₀] is fixed and the LESK ladder starts, each phase
    stepping {!Lesk.step} with [a = 8/ε_j] for {!phase_duration} slots.
    A [Single] in any stage elects.  Requires [c > 0] and
    [threshold >= 1].  The same value runs on the uniform engine, the
    closure stations ({!station}) and the counting engine
    ({!aggregate}), and {!Lewu} runs it under {!Notification}. *)

val stage : state -> stage
val t0 : state -> float option
(** Available once estimation has returned. *)

val station : ?config:config -> unit -> Jamming_station.Station.factory
(** {!protocol} as distributed per-station closures
    ([Aggregate.distributed]) for the exact engine. *)

val aggregate : ?config:config -> unit -> Jamming_sim.Aggregate.packed
(** {!protocol}, packed for the population-counting
    {!Jamming_sim.Aggregate} engine. *)

val eps_guess : int -> float
(** [eps_guess j = 2^{−j/3}], the tolerance sequence. *)

val phase_duration : t0:float -> i:int -> j:int -> int
(** [⌈3·2^i·t₀ / j⌉], clamped to avoid overflow. *)

val expected_time_bound : eps:float -> n:int -> window:int -> float
(** Theorem 2.9 shape (no hidden constant), for normalising plots. *)
