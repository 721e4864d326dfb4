(** Replicated Monte-Carlo execution of (protocol × adversary × setup)
    cells — the workhorse behind every experiment and benchmark.

    The unit of scheduling, seeding, and caching is the {!Cell}: one
    record packaging the engine spec, setup, adversary, population
    dynamics, replication count and base seed.  {!run_cells} executes a
    batch of cells on a work-stealing domain {!Pool}, consulting the
    content-addressed run store underneath when one is installed;
    {!replicate} and {!replicate_churn} are thin one-cell shims over it.

    Seeds are derived deterministically from the cell description and
    the replication index ({!Cell.seed}), so every table in
    EXPERIMENTS.md is exactly reproducible and the outcome of a batch is
    bit-identical for every [jobs] value — only wall timers vary. *)

type setup = {
  n : int;  (** network size *)
  eps : float;  (** adversary's ε (protocols may not know it) *)
  window : int;  (** adversary's T *)
  max_slots : int;  (** per-run cap *)
}

val pp_setup : Format.formatter -> setup -> unit

(** How to execute one cell. *)
type engine =
  | Uniform of Specs.protocol
      (** O(1)-per-slot {!Jamming_sim.Uniform_engine} — uniform
          protocols in strong-CD. *)
  | Exact of {
      name : string;  (** label used in sample/telemetry/seed tags *)
      cd : Jamming_channel.Channel.cd_model;
      factory : Jamming_station.Station.factory;
    }
      (** Exact per-station {!Jamming_sim.Engine} (weak-CD protocols,
          cross-engine validation). *)
  | Faulty of {
      name : string;
      cd : Jamming_channel.Channel.cd_model;
      factory : Jamming_station.Station.factory;
      faults : Jamming_faults.Config.t;
      monitor_checks : Jamming_sim.Monitor.checks option;
          (** [None] = everything when [faults] is null, engine-level
              safety only otherwise — injected faults genuinely break
              the paper's election guarantee, which is the thing being
              measured. *)
    }
      (** Exact engine with fault injection and the online invariant
          monitor.  Station plans and sensing noise are drawn from
          dedicated streams derived from the run seed, so the same seed
          with null faults reproduces the fault-free run exactly.
          Raises {!Jamming_sim.Monitor.Violation} on a broken
          invariant. *)
  | Aggregate of {
      name : string;
      cd : Jamming_channel.Channel.cd_model;
      proto : Jamming_sim.Aggregate.packed;
    }
      (** Population-counting {!Jamming_sim.Aggregate} engine:
          O(#classes) per slot independent of n, for uniform-phase
          protocols at n = 10⁷–10⁹.  Distributionally equivalent to
          [Exact] but with per-class binomial draws instead of
          per-station streams, so agreement is KS-tested, not bitwise.
          Does not support churn. *)
  | Pooled of {
      name : string;
      cd : Jamming_channel.Channel.cd_model;
      pool : Jamming_station.Station.pool_factory;
    }
      (** Flat struct-of-arrays {!Jamming_sim.Engine.run_pool} over a
          {!Jamming_station.Station.pool} (DESIGN.md §15) — the fast
          path for weak-CD notification protocols.  Bit-identical to
          the [Exact] closure engine per seed (asserted in tests and in
          E7's oracle check), so it deliberately shares the [Exact]
          seed tags and cache keys: a pooled cell {e is} the exact
          cell, faster.  Does not support churn. *)

val engine_name : engine -> string

val aggregate_of :
  ?cd:Jamming_channel.Channel.cd_model -> Jamming_sim.Aggregate.packed -> engine
(** Wrap a pure protocol description as an [Aggregate] engine spec
    named after the protocol ([cd] defaults to [Strong_cd]). *)

val aggregate_lesk : ?a:float -> eps:float -> unit -> engine
(** {!Jamming_core.Lesk.aggregate} as an engine spec. *)

val aggregate_lesu : ?config:Jamming_core.Lesu.config -> unit -> engine
(** {!Jamming_core.Lesu.aggregate} as an engine spec. *)

val pooled_lewk : ?eps:float -> unit -> engine
(** {!Jamming_core.Lewk.pool} as a [Pooled] engine spec named ["LEWK"]
    ([eps] defaults to 0.5), so it shares seeds, published tables and
    cache entries with the Exact LEWK spec of the same [eps]. *)

val pooled_lewu : ?config:Jamming_core.Lesu.config -> unit -> engine
(** {!Jamming_core.Lewu.pool} as a [Pooled] engine spec. *)

val exact_lmr : n:int -> engine
(** {!Jamming_core.Lmr.station} as an [Exact] strong-CD spec named
    ["LMR"].  LMR stations need the population size up front, so [n]
    must equal the [setup.n] the cell runs with. *)

val pooled_lmr : unit -> engine
(** {!Jamming_core.Lmr.pool} as a [Pooled] spec sharing the ["LMR"]
    name — and hence seed tags and cache keys — with {!exact_lmr},
    which is sound because the pool is bit-identical to the closure
    stations per seed ([test_lmr.ml]). *)

type sample = {
  setup : setup;
  protocol_name : string;
  adversary_name : string;
  results : Jamming_sim.Metrics.result array;
}

type churn_sample = {
  c_setup : setup;
  c_protocol_name : string;
  c_adversary_name : string;
  c_churn : string;  (** {!Jamming_faults.Churn.descriptor} *)
  c_results : Jamming_sim.Dynamic.result array;
}

(** {1 Cells}

    A cell is the unit of scheduling, seeding and caching: everything
    needed to replicate one (engine × setup × adversary × population)
    point of a sweep, [reps] times, under a deterministic seed
    stream. *)

module Cell : sig
  type population =
    | Static  (** fixed population of [setup.n] stations *)
    | Churning of { churn : Jamming_faults.Churn.t; restart_after : int option }
        (** dynamic population under the self-healing
            {!Jamming_sim.Dynamic} driver (DESIGN.md §12) *)

  type t = {
    engine : engine;
    setup : setup;
    adversary : Specs.adversary;
    population : population;
    reps : int;
    base_seed : int;
    energy : bool;  (** meter every run (DESIGN.md §16) *)
  }

  val v :
    ?base_seed:int ->
    ?churn:Jamming_faults.Churn.t ->
    ?restart_after:int ->
    ?energy:bool ->
    engine:engine ->
    reps:int ->
    setup ->
    Specs.adversary ->
    t
  (** Smart constructor; validates eagerly (see {!validate}).
      [base_seed] defaults to [!]{!default_base_seed}.  Passing [churn]
      and/or [restart_after] makes the population [Churning]; omitting
      both makes it [Static].  (A cell built with [~churn:Churn.none]
      and no restart deadline runs through the dynamic driver's
      null-churn path, which is bit-identical to the static cell —
      but it caches under the churn key and yields a {!churn_sample}.)

      [energy] (default [!]{!default_energy} for static cells, [false]
      for churning ones) attaches a per-run
      {!Jamming_sim.Metrics.result.energy} block.  Metering never
      touches a random stream — the run is otherwise bit-identical and
      the seed {!tag} is unchanged — but metered cells cache under a
      distinct {!key} (their records carry the extra block).  Energy
      and churn are mutually exclusive. *)

  val validate : t -> unit
  (** Raises [Invalid_argument] on a nonsensical cell ([reps] or
      [restart_after] < 1, ill-formed setup or churn policy, energy
      combined with churn). *)

  val tag : t -> string
  (** The seed-stream tag — a function of engine, adversary and setup
      only, shared by a churn cell and its static twin, and kept
      byte-identical to the historical derivation so every published
      table remains reproducible. *)

  val seed : t -> rep:int -> int
  (** Seed of the [rep]-th replication:
      {!Jamming_prng.Prng.seed_stream}[ ~base:c.base_seed ~tag:(tag c) rep].
      Depends only on the cell description and index — never on [jobs],
      scheduling, or which process computes the rep. *)

  val key : t -> Jamming_store.Key.t
  (** The content-address under which {!run_cells} caches this cell
      (static cells via {!cell_key}, churning ones via
      {!churn_cell_key}). *)

  val pp : Format.formatter -> t -> unit
end

type outcome = Sample of sample | Churned of churn_sample
(** What a cell produces: [Static] populations yield [Sample],
    [Churning] ones yield [Churned], positionally matching the input
    cell list of {!run_cells}. *)

(** {1 The work-stealing domain pool} *)

module Pool : sig
  type t

  val create : ?jobs:int -> unit -> t
  (** [jobs] (default [!]{!default_jobs}) is the number of OCaml 5
      domains a {!run_cells} batch runs on, the caller included.
      Domains are spawned per batch, so an idle pool holds no
      resources. *)

  val jobs : t -> int
end

val run_cells :
  ?telemetry:Jamming_telemetry.Telemetry.t ->
  ?store:Jamming_store.Store.t ->
  Pool.t ->
  Cell.t list ->
  outcome list
(** Execute a batch of cells, returning outcomes in input order.

    {b Caching.}  With a store ([?store], else the process default
    installed via {!set_store} / {!with_store}), every cell is looked
    up by {!Cell.key} first — in cell order, on the calling domain —
    and hits skip compute entirely; misses are computed and persisted
    atomically.  Sharded sweeps exploit this: many processes compute
    disjoint (or even overlapping) cell sets against one cache
    directory, and a final resumed run assembles the full report from
    hits alone.

    {b Scheduling.}  Missed cells become tasks on a work-stealing
    deque per domain: tasks are dealt round-robin, owners pop their own
    bottom, idle domains steal from others' tops.  A cell whose [reps]
    exceed the fair share is pre-split into replicate slices so one
    giant cell cannot serialise the tail of a batch.

    {b Determinism.}  Each replication derives its seed from
    {!Cell.seed} alone and writes a dedicated result slot, so results
    are bit-identical for every [jobs] value.  Telemetry ([?telemetry],
    else the {!set_telemetry} default) is aggregated on the calling
    domain in cell order after the join — counters and histograms under
    [runner.] / [runner.churn.] / [store.] are [jobs]-independent;
    only the [runner.wall] timer varies.

    The first exception raised by a replication (e.g.
    {!Jamming_sim.Monitor.Violation}) drains the pool and is re-raised
    with its backtrace. *)

val replicate :
  ?jobs:int ->
  ?base_seed:int ->
  ?telemetry:Jamming_telemetry.Telemetry.t ->
  ?store:Jamming_store.Store.t ->
  ?energy:bool ->
  engine:engine ->
  reps:int ->
  setup ->
  Specs.adversary ->
  sample
(** One static cell on a private pool:
    [run_cells (Pool.create ?jobs ()) [Cell.v ...]].  See {!run_cells}
    for the caching, scheduling and determinism story. *)

val replicate_churn :
  ?jobs:int ->
  ?base_seed:int ->
  ?telemetry:Jamming_telemetry.Telemetry.t ->
  ?store:Jamming_store.Store.t ->
  engine:engine ->
  churn:Jamming_faults.Churn.t ->
  ?restart_after:int ->
  reps:int ->
  setup ->
  Specs.adversary ->
  churn_sample
(** One churning cell on a private pool.  Per-rep seeds reuse the
    static cell's tag, so a null-churn cell replays the exact seeds —
    and hence results — of its static twin. *)

(** {1 Single runs} *)

val run :
  ?observers:Jamming_sim.Observer.t list ->
  ?energy:bool ->
  engine:engine ->
  setup ->
  Specs.adversary ->
  seed:int ->
  Jamming_sim.Metrics.result
(** One election.  [observers] (e.g. {!Jamming_sim.Trace.observer},
    {!Jamming_sim.Monitor.observer},
    {!Jamming_sim.Observer.telemetry}) are passed straight to the
    engine and never perturb the run.  Wrap a bare per-slot callback
    with {!Jamming_sim.Observer.of_on_slot}.

    [energy] attaches the {!Jamming_sim.Metrics.result.energy} block:
    a meter on the exact/faulty/pooled engines, the synthesized O(1)
    summaries on the uniform and aggregate engines.  Never perturbs
    the run. *)

val run_churn :
  ?observers:Jamming_sim.Observer.t list ->
  engine:engine ->
  churn:Jamming_faults.Churn.t ->
  ?restart_after:int ->
  setup ->
  Specs.adversary ->
  seed:int ->
  Jamming_sim.Dynamic.result
(** One dynamic run.  With null churn and no [restart_after] this is
    exactly [run] wrapped by {!Jamming_sim.Dynamic.of_static} — no churn
    stream is even created, so the result is bit-identical to the
    static cell.  Otherwise the churn schedule, departure victims and
    per-incarnation fault plans are drawn from dedicated streams
    ([seed/churn/schedule], [seed/churn/victims], [seed/faults/plans])
    so adding churn never perturbs station or adversary randomness.
    A monitor spans the whole run ({!Jamming_sim.Monitor.all_checks}
    when the spec has no perception/lifecycle faults, safety checks
    otherwise); raises {!Jamming_sim.Monitor.Violation} on a broken
    invariant. *)

(** {1 Store keys and JSON codecs} *)

val cell_key :
  ?energy:bool ->
  engine:engine ->
  adversary:Specs.adversary ->
  reps:int ->
  base_seed:int ->
  setup ->
  Jamming_store.Key.t
(** The store key of a static cell ({!Cell.key} on a [Static]
    population).  Covers the engine kind and name, CD model, adversary
    name, full setup, [reps], [base_seed], the fault configuration (for
    [Faulty] engines), the store schema version, and the code
    fingerprint.  [energy] (default false) appends an extra component
    only when true, so pre-energy keys are byte-stable. *)

val churn_cell_key :
  engine:engine ->
  adversary:Specs.adversary ->
  churn:Jamming_faults.Churn.t ->
  restart_after:int option ->
  reps:int ->
  base_seed:int ->
  setup ->
  Jamming_store.Key.t
(** The store key of a churning cell: the static key fields plus the
    churn descriptor and restart deadline. *)

val sample_to_json : ?include_results:bool -> sample -> Jamming_telemetry.Json.t
(** Machine-readable digest: protocol, adversary, setup, reps, total
    slots, and the headline statistics; [~include_results:true] appends
    every {!Jamming_sim.Metrics.result_to_json}.  Schema in DESIGN.md
    §9. *)

val sample_of_json : Jamming_telemetry.Json.t -> (sample, string) result
(** Inverse of {!sample_to_json}[ ~include_results:true] on the fields
    that constitute the sample (setup, names, per-run results); the
    derived digest fields are recomputed on demand.  [Error] on any
    missing or ill-typed field — the store treats that as a miss. *)

val churn_sample_to_json :
  ?include_results:bool -> churn_sample -> Jamming_telemetry.Json.t

val churn_sample_of_json :
  Jamming_telemetry.Json.t -> (churn_sample, string) result

(** {1 Churn-sample digests} *)

val mean_elections_completed : churn_sample -> float
val mean_leaderless_slots : churn_sample -> float
val max_leaderless_interval : churn_sample -> int

val healed_rate : churn_sample -> float
(** Fraction of runs ending with a live leader (or an empty
    population). *)

(** {1 Process defaults: parallelism, seeding, telemetry, store} *)

val recommended_jobs : unit -> int
(** All available domains ([Domain.recommended_domain_count ()], at
    least 1).  The [JAMMING_JOBS] environment variable, when set to a
    positive integer, overrides the detected count (and [--jobs] on the
    CLIs overrides both). *)

val default_jobs : int ref
(** The [jobs] value used when the argument is omitted (initially 1).
    The CLIs set it from [--jobs]; experiment code can then stay
    oblivious to parallelism. *)

val default_base_seed : int ref
(** The [base_seed] {!Cell.v} uses when the argument is omitted
    (initially 42 — the seed of every published table).  The CLIs'
    [--seed] rebinds it. *)

val default_energy : bool ref
(** The [energy] value {!Cell.v} gives {e static} cells when the
    argument is omitted (initially false).  The CLIs' [--energy] flips
    it so a whole sweep is metered without threading an argument
    through every experiment; churning cells ignore the default, since
    they cannot be metered. *)

val set_telemetry : Jamming_telemetry.Telemetry.t option -> unit
(** Install (or clear) the process-default telemetry sink used by
    {!run_cells} when [?telemetry] is omitted. *)

val with_telemetry : Jamming_telemetry.Telemetry.t -> (unit -> 'a) -> 'a
(** Run a thunk with the default sink set, restoring the previous sink
    after (exception-safe).  This is how sweep meters a whole
    experiment without the experiment knowing. *)

val default_store : Jamming_store.Store.t option ref
(** The store {!run_cells} consults when no explicit [?store] is given
    (initially [None] — no caching). *)

val set_store : Jamming_store.Store.t option -> unit
(** Install (or clear) the process-default run store — how the CLIs'
    [--cache] turns caching on for every cell of a sweep. *)

val with_store : Jamming_store.Store.t -> (unit -> 'a) -> 'a
(** Run a thunk with the default store set, restoring the previous
    value after (exception-safe). *)

(** {1 Sample digests} *)

val slots : sample -> float array
(** Slot counts of the {e completed} runs only. *)

val all_completed : sample -> bool
val success_rate : sample -> float
(** Fraction of runs with a correct election within the cap. *)

val median_slots : sample -> float
(** Median over all runs, counting capped runs at the cap (a lower
    bound when not all completed — pair with {!all_completed}). *)

val mean_energy_per_station : sample -> float
val median_jammed_fraction : sample -> float

val median_awake_slots : sample -> float
(** Median over runs of the per-run {e median awake slots} — the A9
    growth metric (≈ c·log log n for LMR, ≈ election time for the
    always-on paper protocols).  Only metered runs contribute; [nan]
    when the sample has none (the digest JSON then omits the
    ["median_awake"] member, keeping unmetered digests byte-stable). *)
