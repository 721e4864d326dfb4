(* The closure form of a uniform protocol: a record of closures over
   private mutable state.  The library writes every uniform protocol
   as a pure description ([Jamming_sim.Aggregate.protocol]); the test
   suite keeps this second form for its differential oracles
   (Schedule/Lesu_declarative, Notification_oracle and test_sim's
   shared-logic station), so they stay independent of the code they
   check. *)

module Channel = Jamming_channel.Channel
module Aggregate = Jamming_sim.Aggregate

type outcome = Continue | Elected

type t = {
  name : string;
  tx_prob : unit -> float;  (** for the next slot *)
  on_state : Channel.state -> outcome;  (** feedback with the slot's channel state *)
}

type factory = unit -> t
(** Fresh protocol state per call. *)

(* Each instance holds the description's state in a ref, reads
   [tx_prob] off it and advances it with [step].  After [step] returns
   [Elected] the state is kept and every later [on_state] reports
   [Elected] again. *)
let to_uniform (p : _ Aggregate.protocol) () =
  let state = ref p.init and elected = ref false in
  {
    name = p.name;
    tx_prob = (fun () -> p.tx_prob !state);
    on_state =
      (fun channel ->
        if !elected then Elected
        else
          match p.step !state channel with
          | Aggregate.Continue s ->
              state := s;
              Continue
          | Aggregate.Elected ->
              elected := true;
              Elected);
  }

(* The reverse adapter, so a closure oracle can run on the uniform
   engine, which steps its state exactly once per slot.  The "state" is
   one closure instance, mutated in place: unlike the library's
   descriptions this one is not pure, so it must not be run on the
   counting engine or under Notification. *)
let to_protocol (factory : factory) =
  let instance = factory () in
  {
    Aggregate.name = instance.name;
    init = instance;
    tx_prob = (fun u -> u.tx_prob ());
    step =
      (fun u channel ->
        match u.on_state channel with Continue -> Aggregate.Continue u | Elected -> Elected);
    compare = (fun _ _ -> 0);
  }
