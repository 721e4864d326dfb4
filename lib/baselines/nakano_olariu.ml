module Channel = Jamming_channel.Channel
module Aggregate = Jamming_sim.Aggregate

type sweep = { bound : int; j : int }

(* Probe 2^-j for j = 1 .. bound, then restart at j = 1 with
   [next bound]; only a Single (which elects) is feedback. *)
let sweep ~name ~first ~next =
  {
    Aggregate.name;
    init = { bound = first; j = 1 };
    tx_prob = (fun { j; _ } -> Float.exp2 (-.float_of_int j));
    step =
      (fun { bound; j } state ->
        if Channel.equal_state state Channel.Single then Aggregate.Elected
        else if j >= bound then Continue { bound = next bound; j = 1 }
        else Continue { bound; j = j + 1 });
    compare = Stdlib.compare;
  }

let sawtooth = sweep ~name:"NO-sawtooth" ~first:1 ~next:(fun round -> round + 1)

let geometric_sweep =
  sweep ~name:"NO-geometric" ~first:2 ~next:(fun j_max -> Int.min (2 * j_max) 62)
