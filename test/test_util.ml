(* Shared helpers for the test suite. *)

module Prng = Jamming_prng.Prng
module Sample = Jamming_prng.Sample
module Channel = Jamming_channel.Channel
module Budget = Jamming_adversary.Budget
module Adversary = Jamming_adversary.Adversary
module Station = Jamming_station.Station
module Aggregate = Jamming_sim.Aggregate
module Metrics = Jamming_sim.Metrics
module Engine = Jamming_sim.Engine
module Uniform_engine = Jamming_sim.Uniform_engine

let rng ?(seed = 20260706) () = Prng.create ~seed

let check_float = Alcotest.(check (float 1e-9))
let check_float_eps eps = Alcotest.(check (float eps))
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_true msg b = check_bool msg true b

let state_testable =
  Alcotest.testable Channel.pp_state Channel.equal_state

let status_testable = Alcotest.testable Station.pp_status Station.equal_status

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

(* Channel-state sequences for the protocol mirror properties: a
   Single-free prefix, long enough to climb several rungs of LESU's
   phase ladder, then a Single half the time. *)
let channel_run ?(max_len = 1500) () =
  let state =
    QCheck.Gen.frequency
      [ (2, QCheck.Gen.return Channel.Null); (3, QCheck.Gen.return Channel.Collision) ]
  in
  let gen =
    QCheck.Gen.(
      map2
        (fun prefix single -> if single then prefix @ [ Channel.Single ] else prefix)
        (list_size (0 -- max_len) state)
        bool)
  in
  let letter = function
    | Channel.Null -> 'N'
    | Channel.Single -> 'S'
    | Channel.Collision -> 'C'
  in
  QCheck.make ~print:(fun l -> String.of_seq (Seq.map letter (List.to_seq l))) gen

(* Run a uniform protocol's description to completion on the fast
   engine. *)
let run_uniform ?(seed = 7) ?(eps = 0.5) ?(window = 32) ?(max_slots = 200_000)
    ?(adversary = Adversary.none) ~n protocol =
  let rng = Prng.create ~seed in
  let budget = Budget.create ~window ~eps in
  Uniform_engine.run ~n ~rng ~protocol ~adversary:(adversary ()) ~budget ~max_slots ()

(* The state a description reaches from [s] along [states], none of
   which may elect. *)
let walk (p : _ Aggregate.protocol) s states =
  List.fold_left
    (fun s state ->
      match p.Aggregate.step s state with
      | Aggregate.Continue s -> s
      | Aggregate.Elected -> Alcotest.fail (p.Aggregate.name ^ ": unexpected election"))
    s states

(* Run station factories to completion on the exact engine. *)
let run_exact ?(seed = 7) ?(eps = 0.5) ?(window = 32) ?(max_slots = 400_000)
    ?(adversary = Adversary.none) ?(cd = Channel.Strong_cd) ~n factory =
  let rng = Prng.create ~seed in
  let stations = Engine.make_stations ~n ~rng factory in
  let budget = Budget.create ~window ~eps in
  Engine.run ~cd ~adversary:(adversary ()) ~budget ~max_slots ~stations ()

(* Lifecycle faults at rates high enough that most runs see a crash, a
   sleep and a late wake-up, plus 20% sensing noise: the differential
   tests' fault load. *)
let heavy_faults =
  {
    Jamming_faults.Config.perception = Jamming_faults.Perception.uniform ~p:0.2;
    p_crash = 0.3;
    crash_horizon = 500;
    p_sleep = 0.3;
    sleep_horizon = 200;
    max_sleep = 40;
    p_late_wake = 0.3;
    max_wake_delay = 10;
  }
