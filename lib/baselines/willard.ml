module Channel = Jamming_channel.Channel
module Aggregate = Jamming_sim.Aggregate

type phase = Doubling of { k : int } | Bisecting of { lo : int; hi : int } | Firing of { k : int }

(* Exponents are capped so that 2^-k stays representable and the search
   terminates even when jamming keeps pushing it upward. *)
let max_exponent = 60

let tx_prob phase =
  let k =
    match phase with
    | Doubling { k } -> k
    | Bisecting { lo; hi } -> (lo + hi) / 2
    | Firing { k } -> k
  in
  Float.exp2 (-.float_of_int k)

let step phase state =
  match state with
  | Channel.Single -> Aggregate.Elected
  | Channel.Null | Channel.Collision ->
      let got_null = Channel.equal_state state Channel.Null in
      Aggregate.Continue
        (match phase with
        | Doubling { k } ->
            if got_null then
              (* Null at exponent k, Collision at k/2: log2 n is inside. *)
              Bisecting { lo = Int.max 1 (k / 2); hi = k }
            else if 2 * k >= max_exponent then Firing { k = max_exponent }
            else Doubling { k = 2 * k }
        | Bisecting { lo; hi } ->
            let mid = (lo + hi) / 2 in
            let lo, hi = if got_null then (lo, mid) else (mid, hi) in
            if hi - lo <= 1 then Firing { k = lo } else Bisecting { lo; hi }
        | Firing _ -> phase)

let protocol =
  { Aggregate.name = "Willard"; init = Doubling { k = 1 }; tx_prob; step; compare = Stdlib.compare }
