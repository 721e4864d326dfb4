(* The population-counting aggregate engine (Jamming_sim.Aggregate).

   Three contracts under test:
   - the per-class Binomial(count, p) draw is a sufficient statistic for
     the slot, so election times are distributionally identical to the
     per-station exact engine (KS over hundreds of seeds — per-station
     RNG streams necessarily differ, so never bitwise);
   - the pure protocol descriptions agree transition for transition
     with Algorithm 1 written out here (LESK) and with the declarative
     LESU oracle, and every description the library ships is pure;
   - aggregate cells are first-class citizens of the Pool/Store
     machinery: jobs-invariant, cacheable, and churn-rejecting. *)

open Test_util
module E = Jamming_experiments
module Aggregate = Jamming_sim.Aggregate
module Ks = Jamming_stats.Ks
module T = Jamming_telemetry.Telemetry
module Json = Jamming_telemetry.Json
module Store = Jamming_store.Store
module Lesk = Jamming_core.Lesk
module Lesu = Jamming_core.Lesu

let exact_lesk ~eps =
  E.Runner.Exact
    { name = "LESK-exact"; cd = Channel.Strong_cd; factory = Lesk.station ~eps }

let ks_p a b =
  Ks.p_value ~n1:(Array.length a) ~n2:(Array.length b) ~d:(Ks.statistic a b)

(* A rejection this deep is a genuine bug, not sampling noise. *)
let alpha_hard = 1e-4

let differential ~n ~reps ~eps =
  let setup = { E.Runner.n; eps; window = 32; max_slots = 100_000 } in
  let agg =
    E.Runner.replicate ~engine:(E.Runner.aggregate_lesk ~eps ()) ~reps setup
      E.Specs.greedy
  in
  let exact = E.Runner.replicate ~engine:(exact_lesk ~eps) ~reps setup E.Specs.greedy in
  check_true
    (Printf.sprintf "n=%d: both engines elect everywhere" n)
    (E.Runner.success_rate agg = 1.0 && E.Runner.success_rate exact = 1.0);
  let p = ks_p (E.Runner.slots agg) (E.Runner.slots exact) in
  check_true
    (Printf.sprintf "n=%d: election times match exact engine (KS p = %g)" n p)
    (p > alpha_hard)

let test_differential_small () = differential ~n:100 ~reps:300 ~eps:0.5
let test_differential_mid () = differential ~n:1_000 ~reps:220 ~eps:0.5

(* n = 10^4 is exact-engine territory (O(n) per slot); a light jammer
   keeps elections short so 200 seeds stay affordable. *)
let test_differential_large () = differential ~n:10_000 ~reps:200 ~eps:0.9

let test_trichotomy_statistics_match () =
  (* Under a deterministic (slot-indexed) jammer the Zero/One/Many and
     jam fractions are functions of the engine's slot law alone; their
     means must agree across engines. *)
  let n = 500 and eps = 0.5 and reps = 120 in
  let setup = { E.Runner.n; eps; window = 32; max_slots = 100_000 } in
  let fractions sample =
    let tot =
      Array.fold_left (fun acc r -> acc + r.Metrics.slots) 0 sample.E.Runner.results
    in
    let f g =
      float_of_int (Array.fold_left (fun acc r -> acc + g r) 0 sample.E.Runner.results)
      /. float_of_int tot
    in
    [
      ("null", f (fun r -> r.Metrics.nulls));
      ("single", f (fun r -> r.Metrics.singles));
      ("collision", f (fun r -> r.Metrics.collisions));
      ("jammed", f (fun r -> r.Metrics.jammed_slots));
    ]
  in
  let agg =
    E.Runner.replicate ~engine:(E.Runner.aggregate_lesk ~eps ()) ~reps setup
      E.Specs.periodic
  in
  let exact = E.Runner.replicate ~engine:(exact_lesk ~eps) ~reps setup E.Specs.periodic in
  List.iter2
    (fun (label, a) (_, b) ->
      check_true
        (Printf.sprintf "%s fraction agrees (aggregate %.3f vs exact %.3f)" label a b)
        (Float.abs (a -. b) <= 0.05))
    (fractions agg) (fractions exact)

(* --- pure protocol descriptions vs their oracles --- *)

let state_of_int = function
  | 0 -> Channel.Null
  | 1 -> Channel.Single
  | _ -> Channel.Collision

(* Drive LESK's description and Algorithm 1 as the paper states it
   (transmit with 2^-u; Null: u <- max(u - 1, 0); Collision:
   u <- u + 1/a with a = 8/eps; Single elects) on one shared
   perceived-state sequence; transmit probabilities must stay
   bit-identical and both must elect on the same step. *)
let prop_pure_lesk_mirrors_algorithm_1 =
  qtest ~count:300 "Lesk.protocol mirrors the paper"
    QCheck.(pair (float_range 0.05 1.0) (list_of_size Gen.(0 -- 300) (int_range 0 2)))
    (fun (eps, states) ->
      let p = Lesk.protocol ~eps () in
      let a = 8.0 /. eps in
      let rec go state u = function
        | [] -> true
        | s :: rest -> (
            let s = state_of_int s in
            Int64.equal
              (Int64.bits_of_float (p.Aggregate.tx_prob state))
              (Int64.bits_of_float (Float.exp2 (-.u)))
            &&
            match (p.Aggregate.step state s, s) with
            | Aggregate.Elected, Channel.Single -> true
            | Aggregate.Continue state', Channel.Null ->
                go state' (Float.max (u -. 1.0) 0.0) rest
            | Aggregate.Continue state', Channel.Collision -> go state' (u +. (1.0 /. a)) rest
            | Aggregate.Elected, (Channel.Null | Channel.Collision)
            | Aggregate.Continue _, Channel.Single ->
                false)
      in
      go p.Aggregate.init 0.0 states)

(* LESU's pure description against its independent oracle, the
   Schedule-combinator rebuild over Estimation_logic and fresh LESK
   instances: bitwise-equal transmit probabilities and election on the
   same step, across several [c] so short phases climb the ladder. *)
let prop_pure_lesu_matches_declarative =
  qtest ~count:300 "Lesu.aggregate ≡ Lesu_declarative"
    QCheck.(pair (oneofl [ 0.05; 0.5; 4.0 ]) (channel_run ()))
    (fun (c, states) ->
      let config = { Lesu.default_config with c } in
      match Lesu.aggregate ~config () with
      | Aggregate.Packed p ->
          let oracle = Lesu_declarative.uniform ~config () () in
          let rec go state states =
            Int64.equal
              (Int64.bits_of_float (p.Aggregate.tx_prob state))
              (Int64.bits_of_float (oracle.Closure.tx_prob ()))
            &&
            match states with
            | [] -> true
            | s :: rest -> (
                match (p.Aggregate.step state s, oracle.Closure.on_state s) with
                | Aggregate.Elected, Closure.Elected -> true
                | Aggregate.Continue state', Closure.Continue -> go state' rest
                | Aggregate.Elected, Closure.Continue | Aggregate.Continue _, Closure.Elected
                  ->
                    false)
          in
          go p.Aggregate.init states)

(* The oracles' closure form ([Closure.to_uniform]) on a counter: Null
   adds 1, Collision adds 2, Single elects; the transmit probability
   reads the count back. *)
let test_to_uniform () =
  let counter =
    {
      Aggregate.name = "counter";
      init = 0;
      tx_prob = (fun k -> 1.0 /. float_of_int (k + 1));
      step =
        (fun k -> function
          | Channel.Null -> Aggregate.Continue (k + 1)
          | Channel.Collision -> Aggregate.Continue (k + 2)
          | Channel.Single -> Aggregate.Elected);
      compare = Int.compare;
    }
  in
  let factory = Closure.to_uniform counter in
  let u = factory () in
  check_true "name carried" (u.Closure.name = "counter");
  check_float "starts at init" 1.0 (u.Closure.tx_prob ());
  check_true "Null continues" (u.Closure.on_state Channel.Null = Closure.Continue);
  check_true "Collision continues" (u.Closure.on_state Channel.Collision = Closure.Continue);
  check_float "state carried between slots" 0.25 (u.Closure.tx_prob ());
  check_true "Single reports Elected" (u.Closure.on_state Channel.Single = Closure.Elected);
  check_float "state kept at Elected" 0.25 (u.Closure.tx_prob ());
  check_true "Elected again after" (u.Closure.on_state Channel.Null = Closure.Elected);
  check_float "state kept after Elected" 0.25 (u.Closure.tx_prob ());
  check_float "fresh instance per call" 1.0 ((factory ()).Closure.tx_prob ())

(* Every description the library ships, as the engines receive it:
   each Specs protocol for a run of [n] stations and window [window],
   and the descriptions the core drivers build. *)
let shipped ~n ~window =
  List.map
    (fun spec -> spec.E.Specs.p_make ~n ~window)
    E.Specs.
      [
        lesk ~eps:0.5;
        lesk_with_a ~eps:0.5 ~a:1.0;
        lesu ();
        estimation;
        arss;
        willard;
        sawtooth;
        geometric_sweep;
        backoff;
        known_n;
      ]
  @ [
      Aggregate.Packed (Lesk.protocol ~eps:0.2 ());
      Aggregate.Packed (Lesu.protocol ~config:{ Lesu.default_config with c = 0.05 } ());
      Aggregate.Packed (Jamming_core.Size_approx.estimator ());
      Aggregate.Packed (Jamming_core.Size_approx.prober ~slots_per_probe:8 ());
      Aggregate.Packed
        (Jamming_core.K_selection.round_protocol ~eps:0.5 ~round:2 ~initial_u:3.0);
    ]

(* Notification's transition memo and the counting engine's class
   fusion both step a state once for every station that holds it, which
   is exact only if [step] and [tx_prob] are pure: stepping one state
   twice must give successors that [compare] calls equal, with
   bit-equal transmit probabilities, and [compare s s] must be 0. *)
let pure_along (p : _ Aggregate.protocol) states =
  let bits s = Int64.bits_of_float (p.Aggregate.tx_prob s) in
  let rec go s states =
    p.Aggregate.compare s s = 0
    && Int64.equal (bits s) (bits s)
    &&
    match states with
    | [] -> true
    | channel :: rest -> (
        match (p.Aggregate.step s channel, p.Aggregate.step s channel) with
        | Aggregate.Elected, Aggregate.Elected -> true
        | Aggregate.Continue a, Aggregate.Continue b ->
            p.Aggregate.compare a b = 0 && Int64.equal (bits a) (bits b) && go a rest
        | Aggregate.Elected, Aggregate.Continue _ | Aggregate.Continue _, Aggregate.Elected ->
            false)
  in
  go p.Aggregate.init states

let prop_shipped_descriptions_pure =
  qtest ~count:100 "shipped descriptions are pure"
    QCheck.(triple (int_range 1 100_000) (int_range 1 512) (channel_run ()))
    (fun (n, window, states) ->
      List.for_all
        (fun (Aggregate.Packed p) -> pure_along p states)
        (shipped ~n ~window))

(* --- engine invariants --- *)

let run_aggregate ?(seed = 7) ?(eps = 0.5) ?(window = 32) ?(max_slots = 50_000) ~n () =
  let setup = { E.Runner.n; eps; window; max_slots } in
  E.Runner.run ~engine:(E.Runner.aggregate_lesk ~eps ()) setup E.Specs.greedy ~seed

let prop_result_invariants =
  qtest ~count:60 "aggregate results are structurally sound"
    QCheck.(triple (int_range 1 50_000) (float_range 0.3 1.0) small_int)
    (fun (n, eps, seed) ->
      let r = run_aggregate ~seed ~eps ~n () in
      r.Metrics.slots >= 0
      && r.Metrics.nulls + r.Metrics.singles + r.Metrics.collisions = r.Metrics.slots
      && r.Metrics.statuses = [||]
      && r.Metrics.max_station_transmissions = 0
      && (match r.Metrics.leader with
         | Some id -> r.Metrics.elected && id >= 0 && id < n
         | None -> not r.Metrics.elected)
      && ((not r.Metrics.elected) || r.Metrics.completed))

let test_population_scale () =
  (* The engine's reason to exist: a billion stations under the greedy
     jammer elect in a sane number of slots, in milliseconds of CPU. *)
  let n = 1_000_000_000 in
  List.iter
    (fun seed ->
      let r = run_aggregate ~seed ~window:64 ~max_slots:200_000 ~n () in
      check_true "n=1e9 elects" r.Metrics.elected;
      match r.Metrics.leader with
      | Some id -> check_true "leader id in [0, n)" (id >= 0 && id < n)
      | None -> Alcotest.fail "n=1e9: no leader id")
    [ 1; 2; 3; 4; 5 ]

(* --- pool / store integration (mirrors test_pool.ml) --- *)

let setup = { E.Runner.n = 100_000; eps = 0.5; window = 16; max_slots = 50_000 }

let agg_cells =
  List.concat_map
    (fun engine ->
      [
        E.Runner.Cell.v ~base_seed:7 ~engine ~reps:9 setup E.Specs.greedy;
        E.Runner.Cell.v ~base_seed:11 ~engine ~reps:2 setup E.Specs.no_jamming;
      ])
    [ E.Runner.aggregate_lesk ~eps:0.5 (); E.Runner.aggregate_lesu () ]

let outcome_bytes = function
  | E.Runner.Sample s -> Json.to_string (E.Runner.sample_to_json ~include_results:true s)
  | E.Runner.Churned cs ->
      Json.to_string (E.Runner.churn_sample_to_json ~include_results:true cs)

let run_at ~jobs cells =
  let tel = T.create () in
  let outcomes = E.Runner.run_cells ~telemetry:tel (E.Runner.Pool.create ~jobs ()) cells in
  ( String.concat "\n" (List.map outcome_bytes outcomes),
    Json.to_string (T.to_json ~timers:false tel) )

let test_jobs_invariance () =
  let r1, t1 = run_at ~jobs:1 agg_cells in
  List.iter
    (fun jobs ->
      let r, t = run_at ~jobs agg_cells in
      check_true (Printf.sprintf "results identical at jobs=%d" jobs) (r1 = r);
      check_true (Printf.sprintf "telemetry identical at jobs=%d" jobs) (t1 = t))
    [ 2; 7 ]

let with_root f =
  let root =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "aggregate-test-%d-%d" (Unix.getpid ()) (Random.bits ()))
  in
  Fun.protect
    ~finally:(fun () ->
      ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote root))))
    (fun () -> f root)

let test_store_roundtrip () =
  (* Aggregate cells have their own key component; a warmed store must
     serve them back byte-identically. *)
  with_root (fun root ->
      let cold, _ = run_at ~jobs:2 agg_cells in
      let st = Store.create ~fingerprint:"aggregate-test" ~root () in
      ignore (E.Runner.run_cells ~store:st (E.Runner.Pool.create ~jobs:2 ()) agg_cells);
      let st = Store.create ~fingerprint:"aggregate-test" ~root () in
      let tel = T.create () in
      let outcomes =
        E.Runner.run_cells ~telemetry:tel ~store:st
          (E.Runner.Pool.create ~jobs:2 ())
          agg_cells
      in
      let warm = String.concat "\n" (List.map outcome_bytes outcomes) in
      check_true "warm bytes equal cold bytes" (cold = warm);
      check_int "every cell served from the store" (List.length agg_cells)
        (T.counter_value tel "store.hits");
      check_int "nothing recomputed" 0 (T.counter_value tel "store.misses"))

let test_churn_rejected () =
  Alcotest.check_raises "aggregate + churn cell rejected"
    (Invalid_argument "Runner.Cell: the aggregate engine does not support churn")
    (fun () ->
      ignore
        (E.Runner.Cell.v
           ~churn:(Jamming_faults.Churn.Leader_killer { grace = 64; max_kills = 2 })
           ~engine:(E.Runner.aggregate_lesk ~eps:0.5 ())
           ~reps:3 setup E.Specs.greedy))

let test_bad_probability_rejected () =
  let broken =
    Aggregate.Packed
      {
        Aggregate.name = "broken";
        init = ();
        tx_prob = (fun () -> 1.5);
        step = (fun () _ -> Aggregate.Continue ());
        compare = Stdlib.compare;
      }
  in
  Alcotest.check_raises "probability outside [0,1] rejected"
    (Invalid_argument "Aggregate.run: protocol emitted a probability outside [0, 1]")
    (fun () ->
      ignore
        (E.Runner.run
           ~engine:(E.Runner.aggregate_of broken)
           { E.Runner.n = 10; eps = 0.5; window = 16; max_slots = 100 }
           E.Specs.greedy ~seed:1))

let suite =
  [
    ("differential vs exact, n=100", `Slow, test_differential_small);
    ("differential vs exact, n=1000", `Slow, test_differential_mid);
    ("differential vs exact, n=10000", `Slow, test_differential_large);
    ("trichotomy statistics match", `Slow, test_trichotomy_statistics_match);
    prop_pure_lesk_mirrors_algorithm_1;
    prop_pure_lesu_matches_declarative;
    ("to_uniform carries and keeps state", `Quick, test_to_uniform);
    prop_shipped_descriptions_pure;
    prop_result_invariants;
    ("population scale n=1e9", `Quick, test_population_scale);
    ("pool jobs-invariant", `Quick, test_jobs_invariance);
    ("store roundtrip", `Quick, test_store_roundtrip);
    ("churn rejected", `Quick, test_churn_rejected);
    ("bad probability rejected", `Quick, test_bad_probability_rejected);
  ]
