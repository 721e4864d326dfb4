(** Per-station energy accounting: awake / transmit / listen / sleep
    slots (see DESIGN.md §16).

    The paper measures time and leaves energy open; this module makes
    sleep/awake a first-class simulator concept.  A {!Meter} accrues
    per-station events with O(1) cost per event — the engine reports
    transmissions, sleep intervals and terminations, and every other
    slot counts as awake — and a {!summary} condenses a run into
    population totals, a median, and a log₂ histogram of per-station
    awake slots (same binning as [lib/telemetry]).

    Conservation laws, asserted by the QCheck tests for every engine:
    for each station, [awake = tx + listen] and [awake + sleep =
    slots]; summing over stations relates the float totals below. *)

(** {1 Population summary} *)

type summary = {
  stations : int;  (** population size [n] *)
  slots : int;  (** run horizon: every per-station budget sums to it *)
  awake_total : float;
      (** total awake station-slots; float because the uniform engine
          accumulates fractional {e expected} transmissions *)
  tx_total : float;
  listen_total : float;  (** [awake_total -. tx_total] *)
  sleep_total : float;  (** [n *. slots -. awake_total] *)
  max_awake : int;  (** largest single-station awake count *)
  median_awake : float;
      (** median per-station awake slots — the A9 growth metric
          (≈ c·log log n for LMR, ≈ slots for always-on protocols) *)
  awake_bins : (int * int) list;
      (** sparse log₂ histogram of per-station awake counts, sorted by
          bin: bin 0 holds values <= 0, bin i >= 1 holds
          [[2^(i-1), 2^i)] — telemetry's binning exactly *)
}

val equal_summary : summary -> summary -> bool

val summary_to_json : summary -> Jamming_telemetry.Json.t
(** Lossless: floats render value-exactly, so
    [summary_of_json (summary_to_json s)] = [Ok s]. *)

val summary_of_json : Jamming_telemetry.Json.t -> (summary, string) result

val of_per_station :
  n:int -> slots:int -> tx:(int -> int) -> awake:(int -> int) -> summary
(** Build a summary from per-station counts (used by the pooled engine,
    whose pools track their own awake slots, and by {!Meter}): the
    awake counts are tallied into [(awake, count)] groups and passed to
    {!of_groups}, so extra memory depends only on the number of
    distinct awake values.  [awake i] must lie in [[0, slots]] and be
    at least [tx i]. *)

val of_groups :
  n:int -> slots:int -> tx_total:float -> groups:(int * int) list -> summary
(** Summary over exchangeable groups: [groups] is a list of
    [(awake, count)] pairs whose counts sum to [n] (zero-count entries
    are dropped; raises [Invalid_argument] on a mismatched total).
    Cost is independent of [n] — the aggregate engine passes one group
    per retirement event. *)

val all_awake : n:int -> slots:int -> tx_total:float -> summary
(** O(1) summary for the uniform engine: every station awake for all
    [slots] slots, [tx_total] transmissions (possibly fractional)
    spread over the population.  [of_groups] with one group. *)

(** {1 Per-run meter} *)

module Meter : sig
  type t

  val create : n:int -> t
  val n : t -> int

  val note_tx : t -> int -> unit
  (** Station [i] transmitted this slot. O(1). *)

  val tx : t -> int -> int
  (** Live transmission count of station [i] — the predicate
      [Energy_cap] caps on. *)

  val note_sleep : t -> int -> from:int -> until:int -> unit
  (** Station [i] sleeps over the engine-relative interval
      [[from, until)]; [until] may exceed the eventual horizon (it is
      clamped at {!summarize} time).  Raises [Invalid_argument] on an
      empty interval. *)

  val note_finish : t -> int -> from:int -> unit
  (** Station [i] terminated: asleep from relative slot [from] to the
      end of the run. *)

  val summarize : t -> slots:int -> summary
  (** Close all open intervals at horizon [slots] and summarize.  Call
      once, after the run. *)
end

val summarize : Meter.t -> slots:int -> summary
(** Alias for {!Meter.summarize}. *)

(** {1 Telemetry} *)

val observe_summary :
  Jamming_telemetry.Telemetry.t -> prefix:string -> summary -> unit
(** Fold a summary into a sink: counters [<prefix>.runs/stations/awake/
    tx/sleep] (float totals truncated) and histograms
    [<prefix>.max_awake]/[<prefix>.median_awake]. *)

(** {1 Histogram binning} *)

val hist_bins : int
val bin_of : int -> int
(** Telemetry's log₂ bin index, re-exported so tests can cross-check
    {!summary.awake_bins} without depending on histogram internals. *)
