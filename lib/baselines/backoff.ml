module Channel = Jamming_channel.Channel
module Aggregate = Jamming_sim.Aggregate

(* The backoff exponent is capped so that 2^-b stays representable. *)
let max_backoff = 60

let protocol =
  {
    Aggregate.name = "binary-backoff";
    init = 0;
    tx_prob = (fun b -> Float.exp2 (-.float_of_int b));
    step =
      (fun b -> function
        | Channel.Single -> Aggregate.Elected
        | Channel.Collision -> Continue (Int.min (b + 1) max_backoff)
        | Channel.Null -> Continue (Int.max (b - 1) 0));
    compare = Int.compare;
  }

let known_n ~n =
  if n < 1 then invalid_arg "Backoff.known_n: n must be >= 1";
  let p = 1.0 /. float_of_int n in
  {
    Aggregate.name = Printf.sprintf "known-n(%d)" n;
    init = ();
    tx_prob = (fun () -> p);
    step =
      (fun () state ->
        if Channel.equal_state state Channel.Single then Aggregate.Elected else Continue ());
    compare = Unit.compare;
  }
