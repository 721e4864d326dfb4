module Channel = Jamming_channel.Channel
module Aggregate = Jamming_sim.Aggregate

let config_valid ~eps = eps > 0.0 && eps <= 1.0

let step_denominator ~where ?a ~eps () =
  if not (config_valid ~eps) then invalid_arg (where ^ ": eps must lie in (0, 1]");
  let a = match a with Some v -> v | None -> 8.0 /. eps in
  if not (a >= 1.0) then invalid_arg (where ^ ": a must be >= 1");
  a

let tx_prob u = Float.exp2 (-.u)

(* Every engine running [protocol], LESU's ladder and every replica of
   the u-walk step through this one function, so their [u]
   trajectories agree bit for bit. *)
let step ~a u = function
  | Channel.Null -> Aggregate.Continue (Float.max (u -. 1.0) 0.0)
  | Channel.Collision -> Aggregate.Continue (u +. (1.0 /. a))
  | Channel.Single -> Aggregate.Elected

let protocol ?a ~eps () =
  let a = step_denominator ~where:"Lesk.protocol" ?a ~eps () in
  {
    Aggregate.name = Printf.sprintf "LESK(eps=%.3g)" eps;
    init = 0.0;
    tx_prob;
    step = step ~a;
    compare = Float.compare;
  }

let station ~eps = Aggregate.distributed (protocol ~eps ())
let aggregate ?a ~eps () = Aggregate.Packed (protocol ?a ~eps ())

let expected_time_bound ~eps ~n ~window =
  let log2n = Float.max 1.0 (Float.log2 (float_of_int (Int.max 2 n))) in
  (* The theorem is stated for eps < 1; clamp the log(1/eps) factor away
     from 0 so the shape stays usable as a normaliser at eps = 1. *)
  let log_inv_eps = Float.max 0.1 (Float.log2 (1.0 /. eps)) in
  Float.max (float_of_int window) (log2n /. (eps *. eps *. eps *. log_inv_eps))
