(** Uniform leader-election protocols in the style of Nakano and Olariu
    ("Uniform leader election protocols for radio networks", IEEE TPDS
    2002; the paper's reference [21]) for {e unknown} [n] on a benign
    channel.

    Two classic sweeps are provided:

    - {!sawtooth}: rounds [r = 1, 2, …]; round [r] probes
      [p = 2^{−1}, 2^{−2}, …, 2^{−r}].  Some probability close to [1/n]
      is hit every round once [r ≥ log₂ n], so election takes
      [O(log² n)] slots in expectation and [O(log² n · log f)]-ish for
      confidence [1 − 1/f]; no channel feedback is used except the
      terminating [Single] — which also makes it the natural candidate
      for the no-CD model (reference [19]).

    - {!geometric_sweep}: probes [p = 2^{−j}] for [j = 1, 2, 3, …] and
      restarts after [j_max] doublings, doubling [j_max] each restart.
      Uses no feedback either.

    Both ignore [Null]/[Collision] feedback entirely, so the adversary
    cannot steer them — it can only erase their [Single]s.  They lose to
    LESK by a [log n]-factor-ish gap under jamming because they keep
    probing hopeless probabilities; E8/E9 quantify this. *)

type sweep
(** The probed exponent [j] and the bound it restarts at. *)

val sawtooth : sweep Jamming_sim.Aggregate.protocol
(** As a pure description it runs on every engine; E13 runs it as
    no-CD closure stations through [Aggregate.distributed]. *)

val geometric_sweep : sweep Jamming_sim.Aggregate.protocol
