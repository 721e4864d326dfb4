(** The jamming-robust size/window estimator (Function 2, §2.3).

    Round [r = 1, 2, …] consists of [2^r] slots in which every station
    transmits with probability [2^−2^r].  When a round produces at least
    [L] [Null]s, its index is returned.

    Lemma 2.8 (for [L = 2], [n ≥ 115]): w.h.p. the function either
    produces a [Single] on the channel (electing a leader on the spot) or
    returns [i] with [log log n − 1 ≤ i ≤ max{log log n, log T} + 1], in
    [O(max{log n, T})] slots, against any (T, 1−ε)-bounded adversary.
    Intuition: while [2^−2^r ≥ 1/√n] a [Null] is vanishingly unlikely, so
    small rounds cannot return; once the round is long enough the
    adversary cannot jam it all, and with [p ≤ 1/n²] the exposed slots
    are [Null] w.h.p. *)

module Logic : sig
  type t

  val create : threshold:int -> t
  (** [threshold] is the paper's [L]; the paper uses [L = 2]. *)

  val round : t -> int
  (** Current round index (≥ 1). *)

  val tx_prob : t -> float
  (** [2^−2^round]. *)

  val finished : t -> int option
  (** [Some r] once a round has accumulated [threshold] Nulls. *)

  val singled : t -> bool
  (** Whether a [Single] occurred (leader elected during estimation). *)

  val on_state : t -> Jamming_channel.Channel.state -> unit
end

val uniform : ?threshold:int -> unit -> Jamming_station.Uniform.factory
(** Estimation as a uniform protocol: reports [Elected] on [Single];
    after returning a round it keeps probability 0 (the caller is
    expected to stop it — used standalone only in tests/experiments). *)
