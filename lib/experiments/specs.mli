(** Named protocol and adversary constructors shared by the experiment
    registry, the benchmark harness and the CLI binaries.

    A spec closes over nothing run-specific: a protocol spec yields a
    pure description ({!Jamming_sim.Aggregate.protocol}), which holds
    no state, and an adversary spec yields fresh per-run state, so
    replications are independent. *)

type protocol = {
  p_name : string;
  p_make : n:int -> window:int -> Jamming_sim.Aggregate.packed;
      (** The protocol's pure description for a run.  Some baselines
          legitimately receive global knowledge ([n] for the omniscient
          reference, [n] and [T] for ARSS's γ); the paper's own
          protocols ignore both arguments. *)
}

type adversary = {
  a_name : string;
  a_make : seed:int -> n:int -> eps:float -> window:int -> Jamming_adversary.Adversary.factory;
      (** Adaptive, protocol-aware strategies receive the same knowledge
          the paper grants the adversary (the protocol, [n], the
          history); oblivious ones ignore the arguments. *)
}

(** {1 Protocols} *)

val lesk : eps:float -> protocol
val lesk_with_a : eps:float -> a:float -> protocol
val lesu : ?config:Jamming_core.Lesu.config -> unit -> protocol
val estimation : protocol
val arss : protocol
val willard : protocol
val sawtooth : protocol
val geometric_sweep : protocol
val backoff : protocol
val known_n : protocol

(** {1 Adversaries} *)

val no_jamming : adversary
val greedy : adversary
val random_jam : p:float -> adversary
val front_loaded : adversary
val periodic : adversary
val silence_breaker : adversary
val streak_saver : adversary
val single_suppressor : eps_protocol:float -> adversary
val estimate_twister : eps_protocol:float -> adversary
val estimation_staller : adversary
val notification_saboteur : adversary

val standard_adversaries : eps_protocol:float -> adversary list
(** The E9 ablation zoo, ordered from benign to protocol-aware. *)
