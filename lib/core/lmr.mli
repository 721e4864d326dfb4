(** LMR — level-max-race leader election with log-logarithmic awake
    time (DESIGN.md §16).

    The paper's protocols keep every station's radio on for the whole
    election, so per-station {e awake time} equals election time.  LMR
    trades clock time for energy: stations know [n] and race over
    geometric levels, and a station is awake for only
    O(log log n) slots per election cycle.

    One cycle, fully synchronous:

    + {b Level draw} — each station draws [level] with
      P[level = k] = 2{^-k}, capped at [rounds ~n] = max(2, ⌈log₂ n⌉+4)
      (one uniform float per cycle; the cap makes the search range
      closed and, by a union bound, still exceeds every level w.h.p.).
    + {b Search} — all stations binary-search the population's maximum
      level over [[1, rounds]]: each probe slot, stations at
      [level >= mid] transmit; a perceived [Null] rules the upper half
      out, anything else rules the lower half in.  Everyone hears the
      same channel, so all stations track the same [lo, hi] and the
      search closes after at most {!search_slots} slots — the
      Θ(log log n) awake cost.
    + {b Tie knockout} — the stations at the maximum level (usually a
      couple) toss fair coins for {!tie_rounds} slots: a [Single]
      crowns the transmitter tentative leader and drops every listener;
      a [Collision] drops the listeners; a [Null] changes nothing.
      Non-contenders, dropped contenders and the crowned station all
      [Sleep] until the announcement slot.
    + {b Announcement} — everyone wakes; the tentative leader (if any)
      transmits alone.  A perceived [Single] ends the election —
      transmitter [Leader], everyone else [Non_leader]; anything else
      (jammed slot, no tentative) restarts the whole population at the
      next slot with fresh levels.

    Safety never depends on the adversary: at most one tentative can be
    crowned per cycle, so an announcement [Single] elects exactly one
    leader.  Jamming can only delay — it skews the search high (zero
    contenders), kills tie slots, or breaks announcements, each costing
    one cycle of O(log log n) awake slots per station.  Requires
    [Strong_cd]: under weaker models a lone transmitter cannot
    recognise its own [Single], and the tournament never crowns. *)

val name : string
(** ["LMR"]. *)

val tie_rounds : int
(** Knockout slots per cycle (16): enough that a handful of contenders
    resolves w.h.p. before the announcement. *)

val rounds : n:int -> int
(** Level cap / search range for population [n]; max(2, bits(n) + 4).
    Raises [Invalid_argument] if [n < 1]. *)

val search_slots : n:int -> int
(** Worst-case binary-search length, ⌈log₂ (rounds ~n)⌉ — the dominant
    awake cost per cycle. *)

val awake_bound : n:int -> int
(** Per-cycle awake-slot upper bound for any station:
    [search_slots + tie_rounds + 2] (search, worst-case tournament
    stay, announcement).  Non-contenders use only [search_slots + 2];
    the A9 experiment pins the median near that. *)

val station : n:int -> Jamming_station.Station.factory
(** Closure stations for {!Jamming_sim.Engine.run}.  All stations must
    share the same [n] and start at the same slot. *)

val pool : Jamming_station.Station.pool_factory
(** Struct-of-arrays population for {!Jamming_sim.Engine.run_pool}.
    Splits per-station streams in id order, so runs are bit-identical
    to {!station} under [Engine.run] (asserted in [test_lmr.ml]).  Sleep
    is managed inside the pool and per-station awake slots are reported
    through [pool_awake], so metered pooled runs carry the same energy
    block as metered closure runs. *)
