module Core = Jamming_core
module Baselines = Jamming_baselines
module Adversary = Jamming_adversary.Adversary
module Aggregate = Jamming_sim.Aggregate

type protocol = { p_name : string; p_make : n:int -> window:int -> Aggregate.packed }

type adversary = {
  a_name : string;
  a_make : seed:int -> n:int -> eps:float -> window:int -> Adversary.factory;
}

let lesk ~eps =
  {
    p_name = Printf.sprintf "LESK(%.2g)" eps;
    p_make = (fun ~n:_ ~window:_ -> Core.Lesk.aggregate ~eps ());
  }

let lesk_with_a ~eps ~a =
  {
    p_name = Printf.sprintf "LESK(%.2g,a=%.3g)" eps a;
    p_make = (fun ~n:_ ~window:_ -> Core.Lesk.aggregate ~a ~eps ());
  }

let lesu ?config () =
  { p_name = "LESU"; p_make = (fun ~n:_ ~window:_ -> Core.Lesu.aggregate ?config ()) }

(* A parameterless description serves every run as it is. *)
let fixed p_name p = { p_name; p_make = (fun ~n:_ ~window:_ -> Aggregate.Packed p) }

let estimation = fixed "Estimation" (Core.Estimation.protocol ())
let willard = fixed "Willard" Baselines.Willard.protocol
let sawtooth = fixed "NO-sawtooth" Baselines.Nakano_olariu.sawtooth
let geometric_sweep = fixed "NO-geometric" Baselines.Nakano_olariu.geometric_sweep
let backoff = fixed "backoff" Baselines.Backoff.protocol

let arss =
  {
    p_name = "ARSS-MAC";
    p_make =
      (fun ~n ~window ->
        Aggregate.Packed (Baselines.Arss_mac.protocol (Baselines.Arss_mac.config ~n ~window)));
  }

let known_n =
  {
    p_name = "known-n";
    p_make = (fun ~n ~window:_ -> Aggregate.Packed (Baselines.Backoff.known_n ~n));
  }

let no_jamming =
  { a_name = "none"; a_make = (fun ~seed:_ ~n:_ ~eps:_ ~window:_ -> Adversary.none) }

let greedy = { a_name = "greedy"; a_make = (fun ~seed:_ ~n:_ ~eps:_ ~window:_ -> Adversary.greedy) }

let random_jam ~p =
  {
    a_name = Printf.sprintf "random(%.2g)" p;
    a_make = (fun ~seed ~n:_ ~eps:_ ~window:_ -> Adversary.random ~seed ~p);
  }

let front_loaded =
  {
    a_name = "front-loaded";
    a_make = (fun ~seed:_ ~n:_ ~eps:_ ~window -> Adversary.front_loaded ~window);
  }

let periodic =
  {
    a_name = "periodic";
    a_make =
      (fun ~seed:_ ~n:_ ~eps ~window ->
        let burst = Int.max 1 (int_of_float ((1.0 -. eps) *. float_of_int window)) in
        Adversary.periodic ~period:window ~burst);
  }

let silence_breaker =
  { a_name = "silence-breaker"; a_make = (fun ~seed:_ ~n:_ ~eps:_ ~window:_ -> Adversary.silence_breaker) }

let streak_saver =
  {
    a_name = "streak-saver";
    a_make = (fun ~seed:_ ~n:_ ~eps:_ ~window:_ -> Adversary.streak_saver ~quota:4);
  }

let single_suppressor ~eps_protocol =
  {
    a_name = "single-suppressor";
    a_make =
      (fun ~seed:_ ~n ~eps:_ ~window:_ -> Core.Adaptive_jammers.single_suppressor ~eps_protocol ~n);
  }

let estimate_twister ~eps_protocol =
  {
    a_name = "estimate-twister";
    a_make =
      (fun ~seed:_ ~n ~eps:_ ~window:_ -> Core.Adaptive_jammers.estimate_twister ~eps_protocol ~n);
  }

let estimation_staller =
  {
    a_name = "estimation-staller";
    a_make = (fun ~seed:_ ~n:_ ~eps:_ ~window:_ -> Core.Adaptive_jammers.estimation_staller);
  }

let notification_saboteur =
  {
    a_name = "notification-saboteur";
    a_make = (fun ~seed:_ ~n:_ ~eps:_ ~window:_ -> Core.Adaptive_jammers.notification_saboteur);
  }

let standard_adversaries ~eps_protocol =
  [
    no_jamming;
    random_jam ~p:0.5;
    periodic;
    front_loaded;
    greedy;
    silence_breaker;
    streak_saver;
    single_suppressor ~eps_protocol;
    estimate_twister ~eps_protocol;
  ]
