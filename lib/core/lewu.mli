(** LEWU — Leader Election in Weak-CD with no global knowledge at all
    (Theorem 3.3): {!Notification} applied to {!Lesu}.  Elects a leader
    w.h.p. against any (T, 1−ε)-bounded adversary with unknown [T], [ε]
    and [n ≥ 115], within the Theorem 2.9 time bounds times a constant. *)

val station :
  ?on_phase:(id:int -> slot:int -> Notification.phase -> unit) ->
  ?config:Lesu.config ->
  unit ->
  Jamming_station.Station.factory
(** LEWU as per-station closures: {!Notification.station} over
    {!Lesu.protocol}, the path for faulty and churned runs. *)

val pool :
  ?on_phase:(id:int -> slot:int -> Notification.phase -> unit) ->
  ?config:Lesu.config ->
  unit ->
  Jamming_station.Station.pool_factory
(** LEWU in flat-pool form for [Engine.run_pool]: {!Notification.pool}
    over {!Lesu.protocol}.  Bit-identical to {!station} driven by
    [Engine.run] on the same seed; test_notification.ml pins both to a
    closure oracle. *)
