(** Entry point of the experiment registry (E1–E17, F1–F2 and the
    design ablations A1–A9; see DESIGN.md §5 and EXPERIMENTS.md). *)

val all : Registry.t list
(** In presentation order, as [sweep --list] prints it. *)

val find : string -> Registry.t option
(** Look up by id ("E7") or name ("notification-overhead"),
    case-insensitively. *)

val run_one :
  ?telemetry:Jamming_telemetry.Telemetry.t ->
  scale:Registry.scale ->
  Output.t ->
  Registry.t ->
  unit
(** [telemetry] installs the sink as the process default for the
    duration of the experiment ({!Runner.with_telemetry}) and records
    the experiment's wall time under timer ["experiment.wall"]; pair
    with {!Jamming_sim.Gauges} deltas for slots/sec accounting, as
    [sweep --json-out] does. *)
