(** LEWK — Leader Election in Weak-CD with Known ε (Theorem 3.2):
    {!Notification} applied to {!Lesk}.  Elects a leader in
    [O(max{T, log n·log(1/ε)/ε³})] slots w.h.p. for any known [ε],
    unknown [T] and unknown [n ≥ 3]. *)

val station :
  ?on_phase:(id:int -> slot:int -> Notification.phase -> unit) ->
  eps:float ->
  unit ->
  Jamming_station.Station.factory
(** LEWK as per-station closures: {!Notification.station} over
    {!Lesk.protocol}, the path for faulty and churned runs. *)

val pool :
  ?on_phase:(id:int -> slot:int -> Notification.phase -> unit) ->
  eps:float ->
  unit ->
  Jamming_station.Station.pool_factory
(** LEWK in flat-pool form for [Engine.run_pool]: {!Notification.pool}
    over {!Lesk.protocol}.  Bit-identical to {!station} driven by
    [Engine.run] on the same seed; test_notification.ml pins both to a
    closure oracle. *)
