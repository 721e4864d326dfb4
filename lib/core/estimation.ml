module Channel = Jamming_channel.Channel
module Uniform = Jamming_station.Uniform

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

let uniform ?(threshold = 2) () =
  if threshold < 1 then invalid_arg "Estimation.uniform: threshold must be >= 1";
  fun () ->
    let state = ref (Running init) in
    {
      Uniform.name = Printf.sprintf "Estimation(L=%d)" threshold;
      tx_prob =
        (fun () -> match !state with Running s -> tx_prob s | Returned _ | Singled -> 0.0);
      on_state =
        (fun channel ->
          (match !state with
          | Running s -> state := step ~threshold s channel
          | Returned _ | Singled -> ());
          match !state with Singled -> Uniform.Elected | Running _ | Returned _ -> Uniform.Continue);
    }
