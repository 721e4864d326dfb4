module Lesk = Jamming_core.Lesk
module Taxonomy = Jamming_core.Taxonomy
open Test_util

let test_logic_initial () =
  let p = Lesk.protocol ~eps:0.5 () in
  check_float "u starts at 0" 0.0 p.Aggregate.init;
  check_float "a = 8/eps" 16.0 (Lesk.step_denominator ~where:"test" ~eps:0.5 ());
  check_float "tx_prob = 1 at u=0" 1.0 (p.Aggregate.tx_prob p.Aggregate.init);
  check_float "Null at u=0 stays at 0" 0.0 (walk p p.Aggregate.init [ Channel.Null ])

let test_config_valid () =
  check_true "0.5 valid" (Lesk.config_valid ~eps:0.5);
  check_true "1.0 valid" (Lesk.config_valid ~eps:1.0);
  check_true "0 invalid" (not (Lesk.config_valid ~eps:0.0));
  check_true "1.5 invalid" (not (Lesk.config_valid ~eps:1.5))

let test_logic_validation () =
  Alcotest.check_raises "eps = 0" (Invalid_argument "Lesk.protocol: eps must lie in (0, 1]")
    (fun () -> ignore (Lesk.protocol ~eps:0.0 ()));
  Alcotest.check_raises "eps > 1" (Invalid_argument "Lesk.protocol: eps must lie in (0, 1]")
    (fun () -> ignore (Lesk.protocol ~eps:1.0001 ()));
  Alcotest.check_raises "a < 1" (Invalid_argument "Lesk.protocol: a must be >= 1") (fun () ->
      ignore (Lesk.protocol ~a:0.5 ~eps:0.5 ()))

let test_logic_steps () =
  let p = Lesk.protocol ~eps:0.5 () in
  (* Collision: + eps/8 = 1/16. *)
  let u = walk p p.Aggregate.init [ Channel.Collision ] in
  check_float "collision adds 1/a" (1.0 /. 16.0) u;
  let u = walk p u [ Channel.Collision ] in
  check_float "second collision" (2.0 /. 16.0) u;
  (* Null: -1 clamped at 0. *)
  let u = walk p u [ Channel.Null ] in
  check_float "null floors at 0" 0.0 u;
  let u = walk p u (List.init 32 (fun _ -> Channel.Collision)) in
  check_float "32 collisions = 2" 2.0 u;
  let u = walk p u [ Channel.Null ] in
  check_float "null subtracts a full unit" 1.0 u;
  check_float "tx prob is 2^-u" 0.5 (p.Aggregate.tx_prob u)

let test_logic_single_terminates () =
  let p = Lesk.protocol ~eps:0.25 () in
  List.iter
    (fun u ->
      check_true "elected after Single"
        (match p.Aggregate.step u Channel.Single with
        | Aggregate.Elected -> true
        | Aggregate.Continue _ -> false))
    [ 0.0; 1.5; 20.0 ]

let test_null_neutralizes_a_collisions () =
  (* The design invariant of 2.1: one Null cancels exactly a = 8/eps
     collisions. *)
  List.iter
    (fun eps ->
      let p = Lesk.protocol ~eps () in
      let a = int_of_float (Lesk.step_denominator ~where:"test" ~eps ()) in
      let u = walk p 0.0 (List.init a (fun _ -> Channel.Collision)) in
      check_float_eps 1e-9 "a collisions = +1" 1.0 u;
      check_float_eps 1e-9 "one Null cancels them" 0.0 (walk p u [ Channel.Null ]))
    [ 0.5; 0.25; 0.125 ]

let test_custom_a () =
  let p = Lesk.protocol ~a:4.0 ~eps:0.5 () in
  check_float "override step" 0.25 (walk p 0.0 [ Channel.Collision ])

let test_uniform_elects_without_adversary () =
  List.iter
    (fun n ->
      let result = run_uniform ~n (Lesk.protocol ~eps:0.5 ()) in
      check_true (Printf.sprintf "elects at n=%d" n) result.Metrics.elected;
      (* Generous sanity envelope: ~40x the theory shape. *)
      let bound = Lesk.expected_time_bound ~eps:0.5 ~n ~window:32 in
      check_true
        (Printf.sprintf "time %d within envelope %.0f at n=%d" result.Metrics.slots
           (40.0 *. bound) n)
        (float_of_int result.Metrics.slots <= 40.0 *. bound))
    [ 1; 2; 16; 256; 4096 ]

let test_uniform_elects_under_greedy_jamming () =
  List.iter
    (fun eps ->
      let result =
        run_uniform ~eps ~adversary:Adversary.greedy ~n:256 (Lesk.protocol ~eps ())
      in
      check_true (Printf.sprintf "elects under greedy jamming at eps=%.2f" eps)
        result.Metrics.elected)
    [ 0.8; 0.5; 0.3 ]

let test_station_strong_cd_election () =
  let result = run_exact ~n:32 (Lesk.station ~eps:0.5) in
  check_true "exact engine elects" result.Metrics.elected;
  check_true "exactly one leader, all decided" (Metrics.election_ok result)

let test_station_u_synchronized () =
  (* In strong-CD every station perceives the same states, so the logic
     replicas never diverge: the channel can only produce Null/Single/
     Collision patterns consistent with a common p.  We verify via the
     engine's slot trace replayed through a tracker. *)
  let eps = 0.5 in
  let p = Lesk.protocol ~eps () in
  let tracker = ref (Aggregate.Continue p.Aggregate.init) in
  let expected_p = ref [] in
  let record (r : Metrics.slot_record) =
    match !tracker with
    | Aggregate.Elected -> ()
    | Aggregate.Continue u ->
        expected_p := p.Aggregate.tx_prob u :: !expected_p;
        tracker := p.Aggregate.step u r.Metrics.state
  in
  let rng = rng () in
  let stations = Engine.make_stations ~n:8 ~rng (Lesk.station ~eps) in
  let budget = Budget.create ~window:16 ~eps in
  let result =
    Engine.run
      ~observers:[ Jamming_sim.Observer.of_on_slot record ]
      ~cd:Channel.Strong_cd
      ~adversary:(Adversary.greedy ())
      ~budget ~max_slots:100_000 ~stations ()
  in
  check_true "elected" result.Metrics.elected;
  check_true "tracker reaches election too" (!tracker = Aggregate.Elected);
  check_true "probabilities stayed in (0, 1]"
    (List.for_all (fun p -> p > 0.0 && p <= 1.0) !expected_p)

let test_expected_time_bound_shape () =
  let b1 = Lesk.expected_time_bound ~eps:0.5 ~n:1024 ~window:1 in
  let b2 = Lesk.expected_time_bound ~eps:0.5 ~n:1024 ~window:100_000 in
  check_float "T dominates when large" 100_000.0 b2;
  check_true "log term when T small" (b1 < 1000.0);
  let tighter = Lesk.expected_time_bound ~eps:0.25 ~n:1024 ~window:1 in
  check_true "smaller eps means larger bound" (tighter > b1)

(* --- Taxonomy (Lemma 2.3 instrumentation) --- *)

let run_lesk_with_taxonomy ~seed ~n ~eps ~adversary =
  let tracker = Taxonomy.create ~eps ~n in
  let rng = Prng.create ~seed in
  let budget = Budget.create ~window:32 ~eps in
  let result =
    Uniform_engine.run
      ~observers:[ Jamming_sim.Observer.of_on_slot (Taxonomy.on_slot tracker) ]
      ~n ~rng
      ~protocol:(Lesk.protocol ~eps ())
      ~adversary:(adversary ()) ~budget ~max_slots:500_000 ()
  in
  (result, Taxonomy.counts tracker)

let test_taxonomy_total_matches_slots () =
  let result, counts = run_lesk_with_taxonomy ~seed:3 ~n:256 ~eps:0.5 ~adversary:Adversary.greedy in
  check_true "elected" result.Metrics.elected;
  check_int "every slot classified exactly once" result.Metrics.slots (Taxonomy.total counts)

let test_taxonomy_jammed_matches () =
  let result, counts = run_lesk_with_taxonomy ~seed:4 ~n:256 ~eps:0.5 ~adversary:Adversary.greedy in
  check_int "E equals the engine's jam count" result.Metrics.jammed_slots counts.Taxonomy.e

let test_taxonomy_lemma_2_3 () =
  (* The deterministic inequalities of Lemma 2.3 hold on every run. *)
  for seed = 1 to 25 do
    let n = 128 and eps = 0.4 in
    let _, counts = run_lesk_with_taxonomy ~seed ~n ~eps ~adversary:Adversary.greedy in
    let u0 = Float.log2 (float_of_int n) and a = 8.0 /. eps in
    check_true
      (Printf.sprintf "Lemma 2.3 holds (seed %d): %s" seed
         (Format.asprintf "%a" Taxonomy.pp_counts counts))
      (Taxonomy.lemma_2_3_holds counts ~u0 ~a)
  done

let test_taxonomy_regular_bound () =
  (* R must stay above the starred lower bound in Theorem 2.6's proof. *)
  for seed = 30 to 45 do
    let n = 256 and eps = 0.5 in
    let _, counts = run_lesk_with_taxonomy ~seed ~n ~eps ~adversary:Adversary.greedy in
    let u0 = Float.log2 (float_of_int n) and a = 8.0 /. eps in
    check_true "R above the proof's lower bound"
      (float_of_int counts.Taxonomy.r >= Taxonomy.regular_lower_bound counts ~u0 ~a -. 1e-6)
  done

let test_taxonomy_no_jamming_no_e () =
  let _, counts = run_lesk_with_taxonomy ~seed:7 ~n:64 ~eps:0.5 ~adversary:Adversary.none in
  check_int "no jams charged without adversary" 0 counts.Taxonomy.e

let prop_logic_u_nonnegative =
  qtest ~count:200 "u never goes negative under any state sequence"
    QCheck.(pair (float_range 0.05 1.0) (list (int_range 0 1)))
    (fun (eps, moves) ->
      let p = Lesk.protocol ~eps () in
      let u =
        walk p p.Aggregate.init
          (List.map (fun m -> if m = 0 then Channel.Null else Channel.Collision) moves)
      in
      u >= 0.0 && p.Aggregate.tx_prob u <= 1.0 && p.Aggregate.tx_prob u > 0.0)

let suite =
  [
    ("logic initial state", `Quick, test_logic_initial);
    ("config_valid", `Quick, test_config_valid);
    ("logic validation", `Quick, test_logic_validation);
    ("logic step sizes", `Quick, test_logic_steps);
    ("Single terminates", `Quick, test_logic_single_terminates);
    ("one Null cancels a collisions", `Quick, test_null_neutralizes_a_collisions);
    ("custom a override", `Quick, test_custom_a);
    ("elects without adversary", `Quick, test_uniform_elects_without_adversary);
    ("elects under greedy jamming", `Quick, test_uniform_elects_under_greedy_jamming);
    ("exact engine election", `Quick, test_station_strong_cd_election);
    ("u walk synchronized in strong-CD", `Quick, test_station_u_synchronized);
    ("time-bound shape", `Quick, test_expected_time_bound_shape);
    ("taxonomy covers all slots", `Quick, test_taxonomy_total_matches_slots);
    ("taxonomy jam count", `Quick, test_taxonomy_jammed_matches);
    ("Lemma 2.3 inequalities", `Slow, test_taxonomy_lemma_2_3);
    ("Theorem 2.6 regular-slot bound", `Slow, test_taxonomy_regular_bound);
    ("no E without adversary", `Quick, test_taxonomy_no_jamming_no_e);
    prop_logic_u_nonnegative;
  ]
