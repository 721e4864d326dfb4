module Adversary = Jamming_adversary.Adversary

(* A jammer that replays LESK's common estimate [u] from the channel
   history and jams while [wants ~a u] holds. *)
let tracking_lesk ~name ~eps_protocol ~wants =
  let a = Lesk.step_denominator ~where:"Adaptive_jammers" ~eps:eps_protocol () in
  Adversary.stateful ~name
    ~init:(fun () -> ref 0.0)
    ~wants:(fun u ~slot:_ ~can_jam:_ -> wants ~a !u)
    ~notify:(fun u ~slot:_ ~jammed:_ ~state ->
      match Lesk.step ~a !u state with
      | Jamming_sim.Aggregate.Continue u' -> u := u'
      | Elected -> ())

let single_suppressor ~eps_protocol ~n =
  if n < 1 then invalid_arg "Adaptive_jammers.single_suppressor: n must be >= 1";
  let u0 = Float.log2 (float_of_int n) in
  tracking_lesk
    ~name:(Printf.sprintf "single-suppressor(n=%d)" n)
    ~eps_protocol
    ~wants:(fun ~a u ->
      (* Lemma 2.4's regular band: jam where P[Single] is non-trivial. *)
      u >= u0 -. Float.log2 (2.0 *. log a) -. 1.0
      && u <= u0 +. (0.5 *. Float.log2 a) +. 2.0)

let estimate_twister ~eps_protocol ~n =
  if n < 1 then invalid_arg "Adaptive_jammers.estimate_twister: n must be >= 1";
  let u0 = Float.log2 (float_of_int n) in
  tracking_lesk
    ~name:(Printf.sprintf "estimate-twister(n=%d)" n)
    ~eps_protocol
    ~wants:(fun ~a u -> u <= u0 +. Float.log2 a)

let notification_saboteur =
  Adversary.stateful ~name:"notification-saboteur"
    ~init:(fun () -> ())
    ~wants:(fun () ~slot ~can_jam:_ ->
      match Intervals.classify slot with
      | Intervals.C3 _ | Intervals.C1 _ -> true
      | Intervals.C2 _ | Intervals.Idle -> false)
    ~notify:(fun () ~slot:_ ~jammed:_ ~state:_ -> ())

let estimation_staller =
  Adversary.stateful ~name:"estimation-staller"
    ~init:(fun () -> ref 0)
    ~wants:(fun nulls_seen ~slot:_ ~can_jam:_ ->
      (* Keep pressure until the estimator has plausibly escaped: once a
         couple of Nulls leaked through, further jamming is wasted. *)
      !nulls_seen < 2)
    ~notify:(fun nulls_seen ~slot:_ ~jammed:_ ~state ->
      if Jamming_channel.Channel.equal_state state Jamming_channel.Channel.Null then
        incr nulls_seen)
