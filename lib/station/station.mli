(** Station-side protocol interface for the exact engine.

    A station is a closure bundle over private mutable state.  Each slot
    the engine asks for the station's {!action}, resolves the channel,
    and feeds back the {e perceived} state (which already accounts for
    the collision-detection model and for whether this station
    transmitted, see {!Jamming_channel.Channel.perceive}). *)

type action =
  | Transmit
  | Listen
  | Sleep of int
      (** [Sleep until] powers the radio down for the slots
          [[slot, until)]: the station neither transmits nor listens at
          the current slot, is skipped by the engine — no [decide], no
          [observe], no draw from any stream — until the absolute slot
          [until], and is woken with a [decide] call at [until].
          Requires [until > slot]; the engine rejects sleeps into the
          past.  See DESIGN.md §16. *)

val equal_action : action -> action -> bool
val pp_action : Format.formatter -> action -> unit

type status =
  | Undecided
  | Leader
  | Non_leader

val equal_status : status -> status -> bool
val pp_status : Format.formatter -> status -> unit
val status_to_string : status -> string

type t = {
  id : int;
  decide : slot:int -> action;
      (** Action for slot [slot].  Must not be called after [finished ()]
          is [true]; terminated stations leave the channel. *)
  observe : slot:int -> perceived:Jamming_channel.Channel.state -> transmitted:bool -> unit;
      (** Feedback for slot [slot], as perceived by this station. *)
  status : unit -> status;
  finished : unit -> bool;
      (** Whether the station has terminated its protocol (it may know
          its status before terminating, e.g. Notification blockers keep
          transmitting after learning they are non-leaders). *)
}

type factory = id:int -> rng:Jamming_prng.Prng.t -> t
(** Builds station [id]'s instance with a private random stream. *)

(** {1 Vectorized station pools}

    A [pool] is a whole population behind one record: protocol state
    lives in flat arrays inside the implementation (struct-of-arrays)
    instead of one closure bundle per station, so the engine's per-slot
    work is two batch calls instead of [2n] closure invocations.

    The pool keeps its own dense active set, so finished stations cost
    nothing.  [pool_decide_all] fills [actions] and increments
    [tx_counts] for every live station and returns the number of
    transmitters.  [pool_observe_all] takes the two possible perceived
    states of the slot precomputed once ([tx] for stations that
    transmitted, [rx] for listeners) — valid because perception without
    injected noise is a pure function of (resolved state, transmitted).
    Pools are for fault-free runs: runs with lifecycle faults or
    sensing noise use the equivalent closure stations.

    [pool_leaders] and [pool_all_finished] are O(1) (maintained
    incrementally), so observer leader counts and termination checks
    never rescan the population. *)

type pool = {
  pool_size : int;
  pool_begin_slot : slot:int -> unit;
      (** Classify [slot] once for the whole population.  Called before
          [pool_decide_all] and [pool_observe_all] of that slot. *)
  pool_decide_all : slot:int -> actions:action array -> tx_counts:int array -> int;
  pool_observe_all :
    slot:int ->
    actions:action array ->
    tx:Jamming_channel.Channel.state ->
    rx:Jamming_channel.Channel.state ->
    unit;
  pool_status : int -> status;
  pool_all_finished : unit -> bool;
  pool_leaders : unit -> int;
  pool_awake : until:int -> int -> int;
      (** [pool_awake ~until i] is the number of slots station [i] was
          awake (decided [Transmit] or [Listen]) over absolute slots
          [[first, until)], where [first] is the first slot the pool
          saw.  Pools manage sleep internally — the engine never sees a
          [Sleep] action — so energy metering of a pooled run reads
          awake counts from the pool. *)
}

type pool_factory = n:int -> rng:Jamming_prng.Prng.t -> pool
(** Builds a pool of [n] stations.  Implementations must split one
    private stream per station from [rng] in ascending id order, so a
    pool is stream-compatible with [Array.init n (fun id -> factory
    ~id ~rng:(Prng.split rng))] over the same [rng]. *)
