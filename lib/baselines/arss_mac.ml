module Channel = Jamming_channel.Channel
module Aggregate = Jamming_sim.Aggregate

type config = {
  gamma : float;
  p_hat : float;
  initial_p : float;
  initial_threshold : int;
}

let config ~n ~window =
  let log2 x = Float.log2 (Float.max 2.0 x) in
  let denom = 8.0 *. (log2 (float_of_int window) +. log2 (log2 (float_of_int n)) +. 1.0) in
  { gamma = 1.0 /. denom; p_hat = 1.0 /. 24.0; initial_p = 1.0 /. 24.0; initial_threshold = 1 }

let validate cfg =
  if not (cfg.gamma > 0.0) then invalid_arg "Arss_mac: gamma must be positive";
  if not (cfg.p_hat > 0.0 && cfg.p_hat <= 1.0) then invalid_arg "Arss_mac: p_hat out of range";
  if not (cfg.initial_p > 0.0 && cfg.initial_p <= cfg.p_hat) then
    invalid_arg "Arss_mac: initial_p out of range";
  if cfg.initial_threshold < 1 then invalid_arg "Arss_mac: initial_threshold must be >= 1"

type state = {
  p : float;
  threshold : int;
  counter : int;
  useful_in_window : bool;  (* Null or Single since last counter reset *)
}

let protocol cfg =
  validate cfg;
  let up = 1.0 +. cfg.gamma in
  (* Count the round; when the counter passes t_v, reset it, and back
     off if the window saw neither a Null nor a Single. *)
  let count st ~p ~useful =
    let counter = st.counter + 1 in
    if counter <= st.threshold then
      Aggregate.Continue { st with p; counter; useful_in_window = useful }
    else if useful then Continue { st with p; counter = 1; useful_in_window = false }
    else
      Continue { p = p /. up; threshold = st.threshold + 2; counter = 1; useful_in_window = false }
  in
  let step st = function
    | Channel.Single -> Aggregate.Elected
    | Channel.Null -> count st ~p:(Float.min (st.p *. up) cfg.p_hat) ~useful:true
    | Channel.Collision -> count st ~p:st.p ~useful:st.useful_in_window
  in
  {
    Aggregate.name = Printf.sprintf "ARSS-MAC(gamma=%.4f)" cfg.gamma;
    init =
      {
        p = cfg.initial_p;
        threshold = cfg.initial_threshold;
        counter = 0;
        useful_in_window = false;
      };
    tx_prob = (fun st -> st.p);
    step;
    compare = Stdlib.compare;
  }

let expected_time_bound ~n =
  let l = Float.log2 (float_of_int (Int.max 2 n)) in
  l *. l *. l *. l
