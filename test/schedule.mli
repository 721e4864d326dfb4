(** Declarative protocol schedules.

    The paper composes protocols in time: Estimation, then time-boxed
    LESK runs with escalating budgets (Algorithm 2), restarts at
    interval boundaries (§3)…  This module captures the pattern as a
    lazy stream of {e phases}; because the stream is lazy, later phases
    may depend on results computed by earlier ones (e.g. LESU's [t₀]).

    Its consumer is {!Lesu_declarative}, a from-combinators rebuild of
    LESU that the suite runs {e differentially} against
    [Jamming_core.Lesu] — same seed, bit-identical behaviour. *)

type step =
  | Continue
  | Elected  (** a Single was perceived: the election is over *)
  | Phase_done  (** this phase ended; move to the next one *)

type phase = {
  label : string;
  tx_prob : unit -> float;
  on_state : Jamming_channel.Channel.state -> step;
}

type t = (unit -> phase) Seq.t
(** A (possibly infinite) lazy stream of phase constructors; each is
    called exactly once, when its phase begins. *)

val timeboxed : label:string -> duration:(unit -> int) -> Closure.factory -> unit -> phase
(** Run a fresh instance of a uniform protocol for [duration ()] slots
    (evaluated when the phase starts, hence able to read earlier
    results); ends with [Phase_done], or [Elected] if the protocol
    reports it.  [duration ()] must be ≥ 1. *)

val of_list : (unit -> phase) list -> t
val repeat_indexed : (int -> t) -> t
(** [repeat_indexed f] is the concatenation of [f 1, f 2, f 3, …]. *)

val to_uniform :
  ?on_phase:(string -> unit) -> name:string -> t -> Closure.factory
(** Compile a schedule into a uniform protocol.  When the stream is
    exhausted the protocol goes silent ([tx_prob = 0]) and never elects.
    A current phase's [Elected] ends the whole run.  [on_phase] fires
    with each phase's label as it starts (tracing/tests). *)
