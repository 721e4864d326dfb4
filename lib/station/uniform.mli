(** Uniform protocols (Nakano–Olariu, §1.1 of the paper): in every slot
    all stations transmit independently with one common probability that
    is a deterministic function of the shared channel history.

    Such protocols admit an O(1)-per-slot simulation
    ({!Jamming_sim.Uniform_engine}): only the class of the transmitter
    count (0 / 1 / ≥2) matters, and its distribution has a closed form.
    The interface below describes the {e common} logic replicated at
    every station; it sees the true (strong-CD) channel state. *)

type outcome =
  | Continue
  | Elected  (** a [Single] was just observed: the transmitter is leader *)

type t = {
  name : string;
  tx_prob : unit -> float;
      (** Transmission probability for the next slot, in [\[0, 1\]]. *)
  on_state : Jamming_channel.Channel.state -> outcome;
      (** Feedback with the true channel state of the slot. *)
}

type factory = unit -> t
(** Fresh protocol state per run. *)

val distributed : factory -> Station.factory
(** The truly distributed implementation: every station owns a private
    copy of the logic, updated from its {e own} perceived state, and
    flips its own transmit coin.  In strong-CD all copies stay equal; on
    perceiving [Single] a station terminates as [Leader] if it was the
    transmitter, as [Non_leader] otherwise.  (In weak-CD a transmitter
    never perceives [Single]; use {!Jamming_core.Notification} to close
    that gap.) *)
