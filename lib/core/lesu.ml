module Channel = Jamming_channel.Channel
module Uniform = Jamming_station.Uniform
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
   progress or the current time-boxed LESK phase with its estimate [u]
   and step denominator [a = 8/ε_j], which [Lesk.step] advances. *)
type state =
  | Est of { round : int; slots_left : int; nulls : int }
  | Elect of { t0 : float; i : int; j : int; remaining : int; a : float; u : float }

let stage = function
  | Est { round; _ } -> Estimating round
  | Elect { i; j; _ } -> Electing { i; j; eps_hat = eps_guess j }

let t0 = function Est _ -> None | Elect { t0; _ } -> Some t0

let fresh_phase ~t0 ~i ~j =
  Elect { t0; i; j; remaining = phase_duration ~t0 ~i ~j; a = 8.0 /. eps_guess j; u = 0.0 }

let protocol ?(config = default_config) () =
  check_config ~where:"Lesu.protocol" config;
  let step st channel =
    match st with
    | Est { round; slots_left; nulls } -> (
        match channel with
        | Channel.Single -> Aggregate.Elected
        | Channel.Null | Channel.Collision ->
            let nulls = if channel = Channel.Null then nulls + 1 else nulls in
            let slots_left = slots_left - 1 in
            if slots_left > 0 then Aggregate.Continue (Est { round; slots_left; nulls })
            else if nulls >= config.threshold then
              let t0 = config.c *. Float.exp2 (float_of_int (1 + round)) in
              Continue (fresh_phase ~t0 ~i:1 ~j:1)
            else Continue (Est { round = round + 1; slots_left = 1 lsl (round + 1); nulls = 0 }))
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
    | Est { round; _ } -> Float.exp2 (-.Float.exp2 (float_of_int round))
    | Elect { u; _ } -> Lesk.tx_prob u
  in
  {
    Aggregate.name = "LESU";
    init = Est { round = 1; slots_left = 2; nulls = 0 };
    tx_prob;
    step;
    compare = Stdlib.compare;
  }

let uniform ?config () = Aggregate.to_uniform (protocol ?config ())
let station ?config () = Uniform.distributed (uniform ?config ())
let aggregate ?config () = Aggregate.Packed (protocol ?config ())

(* [protocol] in population form for Notification's machine (its pool
   and its stations), hand-specialised because it is the weak-CD hot
   path: stage codes and estimation/election progress in flat arrays.
   Every float update mirrors [protocol]'s step operation for
   operation; the per-station transmission probability is cached and
   recomputed — with the exact expressions [protocol]'s [tx_prob] uses
   — only when the underlying state changes, so it stays bit-identical
   to a fresh computation.  A Single moves a station to the frozen
   stage 2 (tx_prob 0, no further updates), where [protocol] would
   elect.  Neither is observable under weak or no CD: only listeners
   perceive a Single, which drops their sub on the same slot.  Pinned
   bitwise against [protocol] up to the first Single in
   test_notification.ml. *)
let flat_sub ?(config = default_config) () =
  check_config ~where:"Lesu.flat_sub" config;
  {
    Notification.fs_name = "LESU";
    fs_make =
      (fun ~n ->
        (* 0 = estimating, 1 = electing, 2 = finished *)
        let stage = Array.make n 0 in
        let round = Array.make n 1 in
        let slots_left = Array.make n 2 in
        let nulls = Array.make n 0 in
        let t0 = Array.make n 0.0 in
        let el_i = Array.make n 1 in
        let el_j = Array.make n 1 in
        let remaining = Array.make n 0 in
        let a = Array.make n 1.0 in
        let u = Array.make n 0.0 in
        let p = Array.make n 0.0 in
        (* Stations move in lockstep except around Singles, so single-
           entry memos serve nearly the whole population on the hot
           updates; exp2 is pure, so memoized floats are bit-identical
           to fresh computation. *)
        let memo_r = ref (-1) and memo_rp = ref 0.0 in
        let est_p r =
          if r = !memo_r then !memo_rp
          else begin
            let v = Float.exp2 (-.Float.exp2 (float_of_int r)) in
            memo_r := r;
            memo_rp := v;
            v
          end
        in
        let memo_u = ref Float.nan and memo_up = ref 0.0 in
        let exp2m v =
          if v = !memo_u then !memo_up
          else begin
            let r = Float.exp2 (-.v) in
            memo_u := v;
            memo_up := r;
            r
          end
        in
        let fresh_phase s ~i ~j =
          el_i.(s) <- i;
          el_j.(s) <- j;
          (* = [fresh_phase]'s [a] *)
          a.(s) <- 8.0 /. eps_guess j;
          remaining.(s) <- phase_duration ~t0:t0.(s) ~i ~j;
          u.(s) <- 0.0;
          p.(s) <- exp2m 0.0
        in
        let start_electing s =
          t0.(s) <- config.c *. Float.exp2 (float_of_int (1 + round.(s)));
          stage.(s) <- 1;
          fresh_phase s ~i:1 ~j:1
        in
        let on_state s state =
          match stage.(s) with
          | 2 -> ()
          | 0 -> (
              match state with
              | Channel.Single ->
                  stage.(s) <- 2;
                  p.(s) <- 0.0
              | Channel.Null | Channel.Collision ->
                  (match state with
                  | Channel.Null -> nulls.(s) <- nulls.(s) + 1
                  | _ -> ());
                  slots_left.(s) <- slots_left.(s) - 1;
                  if slots_left.(s) = 0 then
                    if nulls.(s) >= config.threshold then start_electing s
                    else begin
                      round.(s) <- round.(s) + 1;
                      slots_left.(s) <- 1 lsl round.(s);
                      nulls.(s) <- 0;
                      p.(s) <- est_p round.(s)
                    end)
          | _ -> (
              match state with
              | Channel.Single ->
                  stage.(s) <- 2;
                  p.(s) <- 0.0
              | Channel.Null | Channel.Collision ->
                  (match state with
                  | Channel.Null ->
                      let u' = Float.max (u.(s) -. 1.0) 0.0 in
                      if u' <> u.(s) then begin
                        u.(s) <- u';
                        p.(s) <- exp2m u'
                      end
                  | _ ->
                      u.(s) <- u.(s) +. (1.0 /. a.(s));
                      p.(s) <- exp2m u.(s));
                  remaining.(s) <- remaining.(s) - 1;
                  if remaining.(s) <= 0 then begin
                    let i, j =
                      if el_j.(s) >= el_i.(s) then (el_i.(s) + 1, 1)
                      else (el_i.(s), el_j.(s) + 1)
                    in
                    fresh_phase s ~i ~j
                  end)
        in
        {
          Notification.sp_reset =
            (fun s ->
              stage.(s) <- 0;
              round.(s) <- 1;
              slots_left.(s) <- 2;
              nulls.(s) <- 0;
              p.(s) <- est_p 1);
          sp_tx_prob = (fun s -> p.(s));
          sp_on_state = on_state;
        });
  }

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
