(* The population-counting aggregate engine (Jamming_sim.Aggregate).

   Three contracts under test:
   - the per-class Binomial(count, p) draw is a sufficient statistic for
     the slot, so election times are distributionally identical to the
     per-station exact engine (KS over hundreds of seeds — per-station
     RNG streams necessarily differ, so never bitwise);
   - the pure protocol descriptions (Lesk.aggregate, Lesu.aggregate)
     agree transition for transition with Lesk.Logic and with the
     declarative LESU oracle;
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

(* --- pure protocol descriptions vs Lesk.Logic and the LESU oracle --- *)

let state_of_int = function
  | 0 -> Channel.Null
  | 1 -> Channel.Single
  | _ -> Channel.Collision

(* Drive the pure description and the reference Logic on one shared
   perceived-state sequence; transmit probabilities and election status
   must stay bit-identical the whole way. *)
let prop_pure_lesk_mirrors_logic =
  qtest ~count:300 "Lesk.aggregate mirrors Lesk.Logic"
    QCheck.(pair (float_range 0.05 1.0) (list_of_size Gen.(0 -- 300) (int_range 0 2)))
    (fun (eps, states) ->
      match Lesk.aggregate ~eps () with
      | Aggregate.Packed p ->
          let logic = Lesk.Logic.create ~eps () in
          let rec go state = function
            | [] -> true
            | s :: rest ->
                let s = state_of_int s in
                Float.equal (p.Aggregate.tx_prob state) (Lesk.Logic.tx_prob logic)
                &&
                (Lesk.Logic.on_state logic s;
                 match p.Aggregate.step state s with
                 | Aggregate.Elected -> Lesk.Logic.elected logic
                 | Aggregate.Continue state' ->
                     (not (Lesk.Logic.elected logic)) && go state' rest)
          in
          go p.Aggregate.init states)

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
              (Int64.bits_of_float (oracle.Uniform.tx_prob ()))
            &&
            match states with
            | [] -> true
            | s :: rest -> (
                match (p.Aggregate.step state s, oracle.Uniform.on_state s) with
                | Aggregate.Elected, Uniform.Elected -> true
                | Aggregate.Continue state', Uniform.Continue -> go state' rest
                | Aggregate.Elected, Uniform.Continue | Aggregate.Continue _, Uniform.Elected
                  ->
                    false)
          in
          go p.Aggregate.init states)

(* [to_uniform] on a counter: Null adds 1, Collision adds 2, Single
   elects; the transmit probability reads the count back. *)
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
  let factory = Aggregate.to_uniform counter in
  let u = factory () in
  check_true "name carried" (u.Uniform.name = "counter");
  check_float "starts at init" 1.0 (u.Uniform.tx_prob ());
  check_true "Null continues" (u.Uniform.on_state Channel.Null = Uniform.Continue);
  check_true "Collision continues" (u.Uniform.on_state Channel.Collision = Uniform.Continue);
  check_float "state carried between slots" 0.25 (u.Uniform.tx_prob ());
  check_true "Single reports Elected" (u.Uniform.on_state Channel.Single = Uniform.Elected);
  check_float "state kept at Elected" 0.25 (u.Uniform.tx_prob ());
  check_true "Elected again after" (u.Uniform.on_state Channel.Null = Uniform.Elected);
  check_float "state kept after Elected" 0.25 (u.Uniform.tx_prob ());
  check_float "fresh instance per call" 1.0 ((factory ()).Uniform.tx_prob ())

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
    prop_pure_lesk_mirrors_logic;
    prop_pure_lesu_matches_declarative;
    ("to_uniform carries and keeps state", `Quick, test_to_uniform);
    prop_result_invariants;
    ("population scale n=1e9", `Quick, test_population_scale);
    ("pool jobs-invariant", `Quick, test_jobs_invariance);
    ("store roundtrip", `Quick, test_store_roundtrip);
    ("churn rejected", `Quick, test_churn_rejected);
    ("bad probability rejected", `Quick, test_bad_probability_rejected);
  ]
