module Aggregate = Jamming_sim.Aggregate

type config = { c : float; threshold : int }

let default_config = { c = 4.0; threshold = 2 }

let check_config ~where config =
  if not (config.c > 0.0) then invalid_arg (where ^ ": c must be positive");
  if config.threshold < 1 then invalid_arg (where ^ ": threshold must be >= 1")

type stage = Estimating of int | Electing of { i : int; j : int; eps_hat : float }

let eps_guess j = Float.exp2 (-.float_of_int j /. 3.0)

let duration_cap = 1 lsl 50

let phase_duration ~t0 ~i ~j =
  let d = 3.0 *. Float.exp2 (float_of_int i) *. t0 /. float_of_int j in
  if d >= float_of_int duration_cap then duration_cap
  else Int.max 1 (int_of_float (Float.ceil d))

(* Algorithm 2 as a pure transition.  A state is either Estimation's
   progress, which [Estimation.step] advances, or the current
   time-boxed LESK phase with its estimate [u] and step denominator
   [a = 8/ε_j], which [Lesk.step] advances. *)
type state =
  | Est of Estimation.state
  | Elect of { t0 : float; i : int; j : int; remaining : int; a : float; u : float }

let stage = function
  | Est e -> Estimating e.Estimation.round
  | Elect { i; j; _ } -> Electing { i; j; eps_hat = eps_guess j }

let t0 = function Est _ -> None | Elect { t0; _ } -> Some t0

let fresh_phase ~t0 ~i ~j =
  Elect { t0; i; j; remaining = phase_duration ~t0 ~i ~j; a = 8.0 /. eps_guess j; u = 0.0 }

let protocol ?(config = default_config) () =
  check_config ~where:"Lesu.protocol" config;
  let step st channel =
    match st with
    | Est e -> (
        match Estimation.step ~threshold:config.threshold e channel with
        | Estimation.Singled -> Aggregate.Elected
        | Running e -> Continue (Est e)
        | Returned round ->
            let t0 = config.c *. Float.exp2 (float_of_int (1 + round)) in
            Continue (fresh_phase ~t0 ~i:1 ~j:1))
    | Elect ({ t0; i; j; remaining; a; u } as phase) -> (
        match Lesk.step ~a u channel with
        | Aggregate.Elected -> Aggregate.Elected
        | Aggregate.Continue u ->
            let remaining = remaining - 1 in
            if remaining > 0 then Continue (Elect { phase with remaining; u })
            else
              let i, j = if j >= i then (i + 1, 1) else (i, j + 1) in
              Continue (fresh_phase ~t0 ~i ~j))
  in
  let tx_prob = function
    | Est e -> Estimation.tx_prob e
    | Elect { u; _ } -> Lesk.tx_prob u
  in
  {
    Aggregate.name = "LESU";
    init = Est Estimation.init;
    tx_prob;
    step;
    compare = Stdlib.compare;
  }

let station ?config () = Aggregate.distributed (protocol ?config ())
let aggregate ?config () = Aggregate.Packed (protocol ?config ())

let expected_time_bound ~eps ~n ~window =
  let log2 x = Float.log2 (Float.max 2.0 x) in
  let nf = float_of_int (Int.max 2 n) and tf = float_of_int (Int.max 1 window) in
  let log_n = log2 nf in
  let log_inv_eps = Float.max 0.5 (Float.log2 (1.0 /. eps)) in
  let eps3 = eps *. eps *. eps in
  if tf <= log_n /. (eps3 *. log_inv_eps) then
    Float.max 1.0 (Float.log2 (Float.max 2.0 log_inv_eps)) /. eps3 *. log_n
  else
    let a = log2 (tf /. (eps *. log_n)) in
    let b = log_inv_eps *. Float.max 1.0 (Float.log2 (Float.max 2.0 log_inv_eps)) in
    Float.max (Float.max a 1.0) b *. tf
