(** Process-wide simulation odometers.

    Both engines tick these atomic counters at the end of every run,
    whatever path the run was started through (runner, experiment, core
    extension, test). Harnesses read deltas around a workload to report
    total slots simulated and slots/second — what [sweep --json-out]
    reports per experiment — without having to thread a sink through
    every call chain.

    Safe under OCaml 5 domains (atomic increments commute, so totals
    are independent of [jobs]); cost is two atomic adds per {e run},
    nothing per slot. *)

val slots_simulated : unit -> int
(** Total slots simulated by this process so far. *)

val runs_completed : unit -> int
(** Total engine runs finished by this process so far. *)

val note_run : slots:int -> unit
(** Engine-internal: account one finished run of [slots] slots. *)
