module Channel = Jamming_channel.Channel
module Aggregate = Jamming_sim.Aggregate

type state = { round : int; slots_left : int; nulls : int }
type outcome = Running of state | Returned of int | Singled

let init = { round = 1; slots_left = 2; nulls = 0 }

(* 2^-2^round; for round >= 10 this underflows towards 0 harmlessly. *)
let tx_prob { round; _ } = Float.exp2 (-.Float.exp2 (float_of_int round))

let step ~threshold { round; slots_left; nulls } = function
  | Channel.Single -> Singled
  | (Channel.Null | Channel.Collision) as channel ->
      let nulls = if channel = Channel.Null then nulls + 1 else nulls in
      let slots_left = slots_left - 1 in
      if slots_left > 0 then Running { round; slots_left; nulls }
      else if nulls >= threshold then Returned round
      else Running { round = round + 1; slots_left = 1 lsl (round + 1); nulls = 0 }

let protocol ?(threshold = 2) () =
  if threshold < 1 then invalid_arg "Estimation.protocol: threshold must be >= 1";
  {
    Aggregate.name = Printf.sprintf "Estimation(L=%d)" threshold;
    init = Running init;
    tx_prob = (function Running s -> tx_prob s | Returned _ | Singled -> 0.0);
    step =
      (fun st channel ->
        match st with
        | Running s -> (
            match step ~threshold s channel with
            | Singled -> Aggregate.Elected
            | (Running _ | Returned _) as st -> Continue st)
        | Returned _ | Singled -> Continue st);
    compare = Stdlib.compare;
  }
