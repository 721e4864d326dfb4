module Lmr = Jamming_core.Lmr
module Energy = Jamming_energy.Energy
open Test_util

let run_lmr ?(seed = 7) ?(eps = 0.5) ?(window = 32) ?(max_slots = 400_000)
    ?(adversary = Adversary.none) ?meter ~n () =
  let rng = Prng.create ~seed in
  let stations = Engine.make_stations ~n ~rng (Lmr.station ~n) in
  let budget = Budget.create ~window ~eps in
  Engine.run ?meter ~cd:Channel.Strong_cd ~adversary:(adversary ()) ~budget ~max_slots
    ~stations ()

let run_lmr_pool ?(seed = 7) ?(eps = 0.5) ?(window = 32) ?(max_slots = 400_000)
    ?(adversary = Adversary.none) ?meter ~n () =
  let rng = Prng.create ~seed in
  let pool = Lmr.pool ~n ~rng in
  let budget = Budget.create ~window ~eps in
  Engine.run_pool ?meter ~cd:Channel.Strong_cd ~adversary:(adversary ()) ~budget
    ~max_slots ~pool ()

let test_elects_one_leader () =
  List.iter
    (fun n ->
      let r = run_lmr ~n () in
      check_true (Printf.sprintf "n=%d completed" n) r.Metrics.completed;
      check_true (Printf.sprintf "n=%d one leader" n) (Metrics.election_ok r))
    [ 1; 2; 3; 5; 16; 64; 257 ]

let test_many_seeds_always_one_leader () =
  for seed = 1 to 40 do
    let r = run_lmr ~seed ~n:9 () in
    check_true (Printf.sprintf "seed %d: one leader" seed) (Metrics.election_ok r)
  done

let test_under_all_adversaries () =
  List.iter
    (fun (name, adversary) ->
      let r = run_lmr ~n:12 ~adversary () in
      check_true (name ^ ": correct election") (Metrics.election_ok r))
    [
      ("none", Adversary.none);
      ("greedy", Adversary.greedy);
      ("random", Adversary.random ~seed:3 ~p:0.6);
      ("silence-breaker", Adversary.silence_breaker);
      ("front-loaded", Adversary.front_loaded ~window:16);
    ]

let result_testable = Alcotest.testable Metrics.pp_result Metrics.equal_result

(* The pool must reproduce the closure stations bit-for-bit — including
   the energy block, which the pooled engine synthesizes from pool-side
   awake counters rather than meter events. *)
let test_pool_matches_exact () =
  List.iter
    (fun (n, adversary) ->
      List.iter
        (fun seed ->
          let exact = run_lmr ~seed ~n ~adversary ~meter:(Energy.Meter.create ~n) () in
          let pooled =
            run_lmr_pool ~seed ~n ~adversary ~meter:(Energy.Meter.create ~n) ()
          in
          Alcotest.check result_testable
            (Printf.sprintf "n=%d seed=%d pooled = exact" n seed)
            exact pooled)
        [ 1; 2; 3 ])
    [ (1, Adversary.none); (7, Adversary.none); (32, Adversary.greedy) ]

let test_reference_engine_agrees () =
  let n = 13 in
  let run_with ~reference =
    let rng = Prng.create ~seed:11 in
    let stations = Engine.make_stations ~n ~rng (Lmr.station ~n) in
    let budget = Budget.create ~window:32 ~eps:0.5 in
    let meter = Energy.Meter.create ~n in
    let engine = if reference then Reference_engine.run else Engine.run ?start_slot:None in
    engine ~meter ~cd:Channel.Strong_cd ~adversary:(Adversary.greedy ()) ~budget
      ~max_slots:400_000 ~stations ()
  in
  Alcotest.check result_testable "run = reference engine (sleeping stations)"
    (run_with ~reference:false)
    (run_with ~reference:true)

let median_awake ~n ?adversary ?seed () =
  let r = run_lmr_pool ?seed ?adversary ~meter:(Energy.Meter.create ~n) ~n () in
  check_true "elected" (Metrics.election_ok r);
  match r.Metrics.energy with
  | Some s -> (s.Energy.median_awake, r.Metrics.slots)
  | None -> Alcotest.fail "metered run lost its energy block"

(* The whole point of LMR: the median station is awake for about the
   search length per cycle, not for the whole election. *)
let test_awake_is_log_logarithmic () =
  List.iter
    (fun n ->
      let med, _ = median_awake ~n () in
      check_true
        (Printf.sprintf "n=%d median awake %.1f within per-cycle bound %d" n med
           (Lmr.search_slots ~n + 4))
        (med <= float_of_int (Lmr.search_slots ~n + 4)))
    [ 16; 256; 4096; 65536 ]

let test_awake_stays_small_under_jamming () =
  let med, slots = median_awake ~n:4096 ~adversary:Adversary.greedy () in
  check_true
    (Printf.sprintf "median awake %.1f well below election time %d" med slots)
    (med *. 2.0 <= float_of_int slots);
  check_true "still only a few cycles of awake slots"
    (med <= float_of_int (4 * Lmr.awake_bound ~n:4096))

let test_bounds_monotone () =
  check_int "rounds at n=1" 5 (Lmr.rounds ~n:1);
  check_true "rounds grow with n" (Lmr.rounds ~n:1_000_000 > Lmr.rounds ~n:10);
  check_true "search is log of rounds"
    (Lmr.search_slots ~n:1_000_000_000 <= 7);
  Alcotest.check_raises "n must be positive"
    (Invalid_argument "Lmr.rounds: need n >= 1") (fun () ->
      ignore (Lmr.rounds ~n:0))

let suite =
  [
    Alcotest.test_case "elects exactly one leader" `Quick test_elects_one_leader;
    Alcotest.test_case "forty seeds, one leader each" `Quick
      test_many_seeds_always_one_leader;
    Alcotest.test_case "elects under every adversary" `Quick test_under_all_adversaries;
    Alcotest.test_case "pool is bit-identical to closures" `Quick test_pool_matches_exact;
    Alcotest.test_case "reference engine agrees under sleep" `Quick
      test_reference_engine_agrees;
    Alcotest.test_case "median awake ~ log log n" `Quick test_awake_is_log_logarithmic;
    Alcotest.test_case "jamming cannot burn the batteries" `Quick
      test_awake_stays_small_under_jamming;
    Alcotest.test_case "bounds sane" `Quick test_bounds_monotone;
  ]
