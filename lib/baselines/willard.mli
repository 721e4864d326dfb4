(** Willard's log-logarithmic selection resolution (SIAM J. Comput. 1986,
    the paper's reference [25]) — the classic fast protocol for a {e
    benign} channel with collision detection.

    Implementation (standard folklore variant): double the probed
    exponent ([p = 2^{−k}], k = 1, 2, 4, 8, …) until a [Null] brackets
    [log₂ n], binary-search the bracket, then fire at the resolved
    probability until a [Single] lands.  Expected time [O(log log n)]
    without an adversary — and, having no jamming defence, it stalls
    under a (T, 1−ε)-bounded jammer, because a jammed slot reads
    [Collision] and pushes the search astray.  That fragility is the
    point of including it in experiments E8/E9. *)

type phase =
  | Doubling of { k : int }
  | Bisecting of { lo : int; hi : int }
  | Firing of { k : int }

val protocol : phase Jamming_sim.Aggregate.protocol
(** The search as a pure description: starts in [Doubling { k = 1 }],
    transmits with [2^{−k}] at the phase's exponent (the midpoint while
    bisecting), and a [Single] elects. *)
