(** LESU rebuilt from {!Schedule} combinators: the test suite's
    independent oracle for {!Jamming_core.Lesu.protocol}.

    Same algorithm — Estimation(L), then time-boxed [LESK(ε_j)] runs
    for [⌈3·2^i·t₀/j⌉] slots in the order [(1,1), (2,1), (2,2), (3,1),
    …] — but expressed as a lazy phase stream over the mutable
    {!Estimation_logic} and fresh {!Jamming_core.Lesk}
    instances instead of one pure transition.  The suite drives both on
    identical seeds and channel-state sequences and demands
    {e bit-identical} behaviour. *)

val uniform :
  ?on_phase:(string -> unit) ->
  ?config:Jamming_core.Lesu.config ->
  unit ->
  Closure.factory
