module Notification = Jamming_core.Notification
module Lewk = Jamming_core.Lewk
module Lewu = Jamming_core.Lewu
open Test_util

let lewk_factory ?on_phase () = Lewk.station ?on_phase ~eps:0.5 ()

let test_basic_weak_cd_election () =
  List.iter
    (fun n ->
      let result = run_exact ~cd:Channel.Weak_cd ~n (lewk_factory ()) in
      check_true (Printf.sprintf "n=%d completed" n) result.Metrics.completed;
      check_true (Printf.sprintf "n=%d exactly one leader" n) (Metrics.election_ok result))
    [ 3; 4; 8; 17; 64 ]

let test_under_all_adversaries () =
  List.iter
    (fun (name, adversary) ->
      let result =
        run_exact ~cd:Channel.Weak_cd ~n:12 ~eps:0.5 ~window:16 ~adversary (lewk_factory ())
      in
      check_true (name ^ ": correct election") (Metrics.election_ok result))
    [
      ("none", Adversary.none);
      ("greedy", Adversary.greedy);
      ("random", Adversary.random ~seed:3 ~p:0.6);
      ("silence-breaker", Adversary.silence_breaker);
      ("front-loaded", Adversary.front_loaded ~window:16);
    ]

let test_many_seeds_always_one_leader () =
  for seed = 1 to 40 do
    let result = run_exact ~cd:Channel.Weak_cd ~seed ~n:7 (lewk_factory ()) in
    check_true (Printf.sprintf "seed %d: one leader" seed) (Metrics.election_ok result)
  done

let test_phase_order () =
  (* Collect phase transitions per station and validate the state
     machine's legal orders. *)
  let transitions = Hashtbl.create 16 in
  let on_phase ~id ~slot:_ phase =
    let prev = try Hashtbl.find transitions id with Not_found -> [] in
    Hashtbl.replace transitions id (phase :: prev)
  in
  let result = run_exact ~cd:Channel.Weak_cd ~n:9 (lewk_factory ~on_phase ()) in
  check_true "completed" result.Metrics.completed;
  let leader_count = ref 0 in
  Hashtbl.iter
    (fun id phases ->
      match List.rev phases with
      | [ Notification.Phase_a2; Notification.Phase_blocking;
          Notification.Phase_done Station.Non_leader ] -> ()
      | [ Notification.Phase_a2; Notification.Phase_done Station.Non_leader ] ->
          (* station s: skips blocking, terminated by the C3 Single *)
          ()
      | [ Notification.Phase_announcing; Notification.Phase_done Station.Leader ] ->
          incr leader_count
      | phases ->
          Alcotest.failf "station %d: unexpected phase order [%s]" id
            (String.concat "; "
               (List.map (Format.asprintf "%a" Notification.pp_phase) phases)))
    transitions;
  check_int "exactly one announcing leader" 1 !leader_count

let test_lewu_elects () =
  let result = run_exact ~cd:Channel.Weak_cd ~n:8 ~max_slots:2_000_000 (Lewu.station ()) in
  check_true "LEWU completes a weak-CD election" (Metrics.election_ok result)

let test_lewu_phase_callback () =
  let transitions = ref 0 in
  let on_phase ~id:_ ~slot:_ _ = incr transitions in
  let result =
    run_exact ~cd:Channel.Weak_cd ~n:6 ~max_slots:2_000_000
      (Lewu.station ~on_phase ())
  in
  check_true "LEWU with callback elects" (Metrics.election_ok result);
  (* every station transitions at least twice (into a non-A1 phase, then done) *)
  check_true "phase callback fired" (!transitions >= 12)

let test_lewk_under_jamming_heavier () =
  let result =
    run_exact ~cd:Channel.Weak_cd ~n:24 ~eps:0.3 ~window:32 ~adversary:Adversary.greedy
      ~max_slots:4_000_000 (lewk_factory ())
  in
  check_true "LEWK survives eps=0.3 greedy jamming" (Metrics.election_ok result)

let test_survives_notification_saboteur () =
  (* The handshake-targeting jammer (jams only C1/C3) cannot prevent
     termination: it cannot cover an entire interval once 2^i >= T. *)
  let result =
    run_exact ~cd:Channel.Weak_cd ~n:9 ~eps:0.5 ~window:16
      ~adversary:Jamming_core.Adaptive_jammers.notification_saboteur
      (lewk_factory ())
  in
  check_true "LEWK terminates despite the saboteur" (Metrics.election_ok result)

let test_no_cd_never_completes () =
  (* Section 4's open problem, negatively: in no-CD the leader cannot
     hear the C1-Null that ends the handshake, so the election never
     completes (though a Single does occur). *)
  let singles = ref 0 in
  let rng = Prng.create ~seed:3 in
  let stations = Engine.make_stations ~n:8 ~rng (lewk_factory ()) in
  let budget = Budget.create ~window:16 ~eps:0.5 in
  let result =
    Engine.run
      ~observers:
        [
          Jamming_sim.Observer.of_on_slot (fun r ->
              if Channel.equal_state r.Metrics.state Channel.Single then incr singles);
        ]
      ~cd:Channel.No_cd ~adversary:(Adversary.none ()) ~budget ~max_slots:20_000 ~stations ()
  in
  check_true "selection succeeded (a Single occurred)" (!singles > 0);
  check_true "but the election never completes in no-CD" (not result.Metrics.completed)

let prop_random_configs_elect_one_leader =
  qtest ~count:25 "LEWK elects exactly one leader for random (n, eps, T, seed)"
    QCheck.(
      quad (int_range 3 40) (float_range 0.25 1.0) (int_range 1 64) small_int)
    (fun (n, eps, window, seed) ->
      let result =
        run_exact ~cd:Channel.Weak_cd ~seed ~n ~eps ~window
          ~adversary:Adversary.greedy ~max_slots:2_000_000 (lewk_factory ())
      in
      Metrics.election_ok result)

let test_overhead_constant_factor () =
  (* Median over a few seeds: LEWK within a generous constant of LESK. *)
  let reps = 12 in
  let med f =
    let xs =
      Array.init reps (fun i -> float_of_int (f (100 + i)))
    in
    Jamming_stats.Descriptive.median xs
  in
  let lewk seed =
    (run_exact ~cd:Channel.Weak_cd ~seed ~n:16 (lewk_factory ())).Metrics.slots
  in
  let lesk seed =
    (run_exact ~cd:Channel.Strong_cd ~seed ~n:16 (Jamming_core.Lesk.station ~eps:0.5))
      .Metrics.slots
  in
  let r = med lewk /. Float.max 1.0 (med lesk) in
  (* Lemma 3.1 proves O(1); the interval machinery's ramp-up makes the
     practical constant bigger at tiny n, so the envelope is generous. *)
  check_true (Printf.sprintf "overhead %.1fx bounded" r) (r < 64.0)

(* --- station and pool vs the closure oracle --------------------------- *)

module Observer = Jamming_sim.Observer
module Config = Jamming_faults.Config
module Fault_plan = Jamming_faults.Fault_plan
module Injection = Jamming_faults.Injection
module Aggregate = Jamming_sim.Aggregate

(* [P_pure a] runs Notification over any pure description [a]. *)
type protocol = P_lewk | P_lewu | P_pure of Aggregate.packed

(* One run through the oracle ([Notification_oracle]), the derived
   station or the pool, everything rebuilt from the seed — stations or
   pool, adversary, budget, sensing noise — with a needs_leaders
   observer logging every slot record and the phase callback logging
   every transition.  Both derived forms must reproduce the oracle bit
   for bit: same result, same slot records and leader counts, same
   (id, slot, phase) transitions.  Pools run fault-free: [plans]
   (lifecycle faults) and [noise] apply to the station forms only. *)
let identity_run ?plans ?noise ?(cd = Channel.Weak_cd) which ~protocol ~seed ~n ~adversary
    ~max_slots =
  let transitions = ref [] in
  let on_phase ~id ~slot ph = transitions := (id, slot, ph) :: !transitions in
  let log = ref [] in
  let recording =
    Observer.make ~name:"rec" ~needs_leaders:true
      ~on_slot:(fun r ~leaders ->
        log :=
          (r.Metrics.slot, r.Metrics.transmitters, r.Metrics.jammed, r.Metrics.state, leaders)
          :: !log)
      ()
  in
  let g = Prng.create ~seed in
  let budget = Budget.create ~window:16 ~eps:0.5 in
  let adversary = adversary () in
  let result =
    match which with
    | `Pool ->
        let pool =
          match protocol with
          | P_lewk -> Lewk.pool ~on_phase ~eps:0.5 () ~n ~rng:g
          | P_lewu -> Lewu.pool ~on_phase () ~n ~rng:g
          | P_pure (Aggregate.Packed a) -> Notification.pool ~on_phase a ~n ~rng:g
        in
        Engine.run_pool ~observers:[ recording ] ~cd ~adversary ~budget ~max_slots ~pool ()
    | (`Oracle | `Station) as which ->
        let factory =
          match (which, protocol) with
          | `Oracle, P_lewk -> Notification_oracle.lewk ~on_phase ~eps:0.5 ()
          | `Oracle, P_lewu -> Notification_oracle.lewu ~on_phase ()
          | `Station, P_lewk -> Lewk.station ~on_phase ~eps:0.5 ()
          | `Station, P_lewu -> Lewu.station ~on_phase ()
          | `Oracle, P_pure (Aggregate.Packed a) -> Notification_oracle.of_protocol ~on_phase a
          | `Station, P_pure (Aggregate.Packed a) -> Notification.station ~on_phase a
        in
        let stations = Engine.make_stations ~n ~rng:g factory in
        let stations =
          match plans with None -> stations | Some ps -> Config.wrap_stations ps stations
        in
        let faults =
          let rng = Prng.create ~seed:(seed lxor 0x85ebca6b) in
          Option.map (fun noise -> Injection.create ~noise ~rng) noise
        in
        Engine.run ?faults ~observers:[ recording ] ~cd ~adversary ~budget ~max_slots
          ~stations ()
  in
  (result, List.rev !log, List.rev !transitions)

let matches_oracle ?plans ?noise ?cd which ~protocol ~seed ~n ~adversary ~max_slots =
  identity_run ?plans ?noise ?cd `Oracle ~protocol ~seed ~n ~adversary ~max_slots
  = identity_run ?plans ?noise ?cd which ~protocol ~seed ~n ~adversary ~max_slots

let cd_gen = QCheck.oneofl [ Channel.Weak_cd; Channel.No_cd; Channel.Strong_cd ]

let prop_pool_matches_oracle_lewk =
  qtest ~count:40 "LEWK flat pool ≡ closure oracle (seeds × jamming × n × CD)"
    QCheck.(quad small_int (oneofl [ 1; 2; 17; 48; 256 ]) bool cd_gen)
    (fun (seed, n, jam, cd) ->
      let adversary = if jam then Adversary.greedy else Adversary.none in
      let max_slots = if n >= 256 then 4_000 else 20_000 in
      matches_oracle ~cd `Pool ~protocol:P_lewk ~seed ~n ~adversary ~max_slots)

let prop_pool_matches_oracle_lewu =
  qtest ~count:12 "LEWU flat pool ≡ closure oracle"
    QCheck.(triple small_int (oneofl [ 1; 2; 17 ]) cd_gen)
    (fun (seed, n, cd) ->
      matches_oracle ~cd `Pool ~protocol:P_lewu ~seed ~n ~adversary:Adversary.greedy
        ~max_slots:10_000)

let prop_station_matches_oracle =
  qtest ~count:60 "LEWK/LEWU station ≡ closure oracle (faults × noise × CD × n)"
    QCheck.(
      pair
        (triple (oneofl [ P_lewk; P_lewu ]) small_int (oneofl [ 1; 2; 3; 9; 24 ]))
        (quad bool bool cd_gen bool))
    (fun ((protocol, seed, n), (faulty, noisy, cd, jam)) ->
      let plans =
        if not faulty then None
        else
          let rng = Prng.create ~seed:(seed lxor 0x9e3779b9) in
          Some (Config.sample_plans heavy_faults ~rng ~n)
      in
      let noise = if noisy then Some heavy_faults.Config.perception else None in
      let adversary = if jam then Adversary.greedy else Adversary.none in
      matches_oracle ?plans ?noise ~cd `Station ~protocol ~seed ~n ~adversary
        ~max_slots:10_000)

(* The pools well past the populations the pool ≡ oracle properties
   reach: under the greedy jammer every rep elects within the slot cap. *)
let test_pools_elect_at_scale () =
  let module E = Jamming_experiments in
  List.iter
    (fun (what, engine, n) ->
      let setup = { E.Runner.n; eps = 0.5; window = 64; max_slots = 2_000_000 } in
      let sample = E.Runner.replicate ~engine ~reps:3 setup E.Specs.greedy in
      check_float (what ^ " elects on every rep") 1.0 (E.Runner.success_rate sample))
    [
      ("pooled LEWK at n=10^3", E.Runner.pooled_lewk ~eps:0.5 (), 1_000);
      ("pooled LEWU at n=10^4", E.Runner.pooled_lewu (), 10_000);
    ]

let test_staggered_join_sits_out () =
  (* Station 0 wakes at slot 4.  Slot 3 opened C1 of generation 1, so it
     joins that interval at offset ≠ 0 and must sit it out — no sub
     instance, no stream split, no draws — until a fresh interval
     starts.  The run must still elect, exactly as the oracle does. *)
  let plans =
    Array.init 6 (fun i ->
        if i = 0 then { Fault_plan.none with Fault_plan.wake_slot = 4 }
        else Fault_plan.none)
  in
  List.iter
    (fun seed ->
      let run which =
        identity_run ~plans which ~protocol:P_lewk ~seed ~n:6 ~adversary:Adversary.none
          ~max_slots:50_000
      in
      let ((r, _, transitions) as derived) = run `Station in
      check_true "staggered join: station ≡ oracle" (derived = run `Oracle);
      check_true "staggered join: still elects" (Metrics.election_ok r);
      (* The latecomer's first transition happens after it re-joined on a
         fresh interval boundary (generation 2 starts at slot 9). *)
      List.iter
        (fun (id, slot, _) -> if id = 0 then check_true "latecomer transitions late" (slot >= 9))
        transitions)
    [ 1; 2; 3; 4; 5 ]

(* A pure protocol whose state is a hash of its whole perceived
   history, so a station handed another's state by the pool's
   transition memo leaves the oracle's trajectory at once.  Weak- and
   no-CD transmitters perceive Collision while listeners hear the slot,
   so stations leave lockstep.  A Single elects, and so does one
   history in 61, which freezes instances that keep transmitting. *)
let history_hash =
  {
    Aggregate.name = "history-hash";
    init = 17;
    tx_prob = (fun h -> Float.exp2 (-.float_of_int (h mod 7)));
    step =
      (fun h st ->
        match st with
        | Channel.Single -> Aggregate.Elected
        | Channel.Null | Channel.Collision ->
            let h = Hashtbl.hash (h, st) in
            if h mod 61 = 0 then Aggregate.Elected else Aggregate.Continue h);
    compare = Int.compare;
  }

let prop_pool_memo_matches_oracle =
  qtest ~count:100 "Notification.pool ≡ oracle over a history-hash protocol"
    QCheck.(quad small_int (oneofl [ 2; 17; 48 ]) bool cd_gen)
    (fun (seed, n, jam, cd) ->
      let adversary = if jam then Adversary.greedy else Adversary.none in
      matches_oracle ~cd `Pool ~protocol:(P_pure (Aggregate.Packed history_hash)) ~seed ~n
        ~adversary ~max_slots:5_000)

let suite =
  [
    ("weak-CD election across n", `Quick, test_basic_weak_cd_election);
    ("all adversaries", `Slow, test_under_all_adversaries);
    ("one leader across 40 seeds", `Slow, test_many_seeds_always_one_leader);
    ("phase machine follows Function 4", `Quick, test_phase_order);
    ("LEWU end-to-end", `Slow, test_lewu_elects);
    ("LEWU phase callback", `Slow, test_lewu_phase_callback);
    ("LEWK under heavy jamming", `Slow, test_lewk_under_jamming_heavier);
    ("survives the handshake saboteur", `Quick, test_survives_notification_saboteur);
    ("no-CD never completes (open problem)", `Quick, test_no_cd_never_completes);
    prop_random_configs_elect_one_leader;
    ("constant-factor overhead", `Slow, test_overhead_constant_factor);
    prop_pool_matches_oracle_lewk;
    prop_pool_matches_oracle_lewu;
    prop_station_matches_oracle;
    ("staggered generation join sits out", `Quick, test_staggered_join_sits_out);
    ("pools elect at n=10^3..10^4 under greedy", `Quick, test_pools_elect_at_scale);
    prop_pool_memo_matches_oracle;
  ]
