(** Exact per-station simulation of the slotted channel.

    Handles every collision-detection model, heterogeneous stations
    (e.g. the phase-split stations of Notification), and any adversary.
    The engine keeps a dense, order-preserving index of the stations
    still running, so a slot costs O(active stations), not O(n): for
    early-finishing workloads (k-selection-style retirement, crashing
    stations, chained elections) the cost tracks the shrinking
    population.  Use {!Uniform_engine} for uniform protocols at large
    [n], where a slot is O(1).

    The active-set bookkeeping assumes what every protocol in this
    repository satisfies: a station's [finished] is {e monotone} (once
    [true] it stays [true]) and neither [finished] nor [status] changes
    spontaneously — only a [decide] or [observe] call on that station
    may change them.  A station violating this could diverge from the
    plain O(n)-per-slot engine.  That engine lives in the test suite
    ([test/reference_engine.ml]) as the differential oracle, and
    [test_sim.ml] asserts {!run} bit-identical to it — results, slot
    records, leader counts and sensing-noise draws — for the shipped
    protocols under faults, observers and a monitor. *)

val run :
  ?start_slot:int ->
  ?faults:Jamming_faults.Injection.t ->
  ?meter:Jamming_energy.Energy.Meter.t ->
  ?observers:Observer.t list ->
  cd:Jamming_channel.Channel.cd_model ->
  adversary:Jamming_adversary.Adversary.t ->
  budget:Jamming_adversary.Budget.t ->
  max_slots:int ->
  stations:Jamming_station.Station.t array ->
  unit ->
  Metrics.result
(** Runs until every station reports [finished] or [max_slots] elapse
    ([max_slots] counts slots of this run; slot numbers reported to
    stations and adversary start at [start_slot], default 0, so that
    chained elections can share one adversary and budget).
    Each slot, in order: the adversary commits its jam decision (before
    seeing any action, per §1.1), live stations choose actions, the slot
    resolves, every live station receives its perceived state, the
    adversary observes the true state.  Stations that have finished
    neither transmit nor listen.

    [faults] injects per-station CD misperception: each live station's
    perceived state is drawn by passing the true resolved state through
    the injection's noise before the CD-model filter.  Absent faults —
    or an injection whose rates are all zero — the run is bit-identical
    to the seed engine for the same seeds (zero-rate noise draws no
    randomness).  Station lifecycle faults (crash/sleep/late wake-up)
    are orthogonal: wrap the stations with
    {!Jamming_faults.Fault_plan.wrap} before calling [run].

    [observers] watch the run: each is notified after every resolved
    slot (with the live leader count when some observer set
    [needs_leaders], [-1] otherwise) and once with the final metrics
    before they are returned.  Observers never touch the random
    streams, so attaching any number of them leaves the result
    bit-identical.  With no observers the engine skips building slot
    records altogether.

    An invariant {!Monitor} attaches as [Monitor.observer mon], and a
    bare per-slot callback as {!Observer.of_on_slot}.

    [meter] turns on energy accounting (DESIGN.md §16): the engine
    reports transmissions, sleep intervals and terminations into the
    meter (O(1) per event, never touching any random stream) and
    attaches [Energy.summarize meter ~slots] to the result as
    [result.energy].  A station may return [Sleep until] from [decide]:
    it is then skipped — no decide, no observe, no sensing draw — until
    absolute slot [until].  Metering off and no sleeping stations leave
    the run bit-identical to the pre-energy engine (QCheck-asserted in
    [test_energy.ml]).

    The result reports [leader = Some _] exactly when [elected]: a run
    cut off at [max_slots] reports no leader even if one station stands
    in status [Leader] at the cut-off (its election never completed). *)

val run_pool :
  ?start_slot:int ->
  ?meter:Jamming_energy.Energy.Meter.t ->
  ?observers:Observer.t list ->
  cd:Jamming_channel.Channel.cd_model ->
  adversary:Jamming_adversary.Adversary.t ->
  budget:Jamming_adversary.Budget.t ->
  max_slots:int ->
  pool:Jamming_station.Station.pool ->
  unit ->
  Metrics.result
(** The vectorized engine: one {!Jamming_station.Station.pool} holds
    the whole population in flat arrays, and a slot is two batch calls
    (decide-all, observe-all) with the perceived state computed once
    per slot for transmitters and once for listeners — not once per
    station.  Semantics are those of {!run} over the equivalent closure
    stations: same slot ordering, same observer records, same result,
    and (for the shipped pools) bit-identical random streams, asserted
    in [test_notification.ml] and [test_lmr.ml].

    There is no fault injection here: runs with lifecycle faults or
    sensing noise go through {!run} over the closure stations, which
    the pools are bit-identical to.

    [meter] turns on energy accounting.  Pools manage sleep internally,
    so the engine does not feed the meter (only its size is checked);
    it reads per-station awake counts back through [pool.pool_awake]
    and transmission counts from its own [tx_counts].  The resulting
    [result.energy] block is identical to what metering the equivalent
    closure stations produces. *)

val make_stations :
  n:int -> rng:Jamming_prng.Prng.t -> Jamming_station.Station.factory ->
  Jamming_station.Station.t array
(** [make_stations ~n ~rng factory] builds stations [0 .. n−1], each with
    an independent random stream split off [rng]. *)
