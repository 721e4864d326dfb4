module Lesu = Jamming_core.Lesu
module Aggregate = Jamming_sim.Aggregate
open Test_util

let test_eps_guess () =
  check_float_eps 1e-12 "eps_1" (Float.exp2 (-1.0 /. 3.0)) (Lesu.eps_guess 1);
  check_float_eps 1e-12 "eps_3 = 1/2" 0.5 (Lesu.eps_guess 3);
  check_float_eps 1e-12 "eps_6 = 1/4" 0.25 (Lesu.eps_guess 6);
  check_true "decreasing" (Lesu.eps_guess 4 < Lesu.eps_guess 3)

let test_phase_duration () =
  (* ceil(3 * 2^i * t0 / j). *)
  check_int "i=1 j=1 t0=10" 60 (Lesu.phase_duration ~t0:10.0 ~i:1 ~j:1);
  check_int "i=2 j=3" (int_of_float (Float.ceil (3.0 *. 4.0 *. 10.0 /. 3.0)))
    (Lesu.phase_duration ~t0:10.0 ~i:2 ~j:3);
  check_true "overflow clamps" (Lesu.phase_duration ~t0:1e18 ~i:60 ~j:1 > 0)

let test_config_validation () =
  Alcotest.check_raises "c = 0" (Invalid_argument "Lesu.protocol: c must be positive")
    (fun () -> ignore (Lesu.protocol ~config:{ Lesu.default_config with c = 0.0 } ()));
  Alcotest.check_raises "threshold = 0"
    (Invalid_argument "Lesu.protocol: threshold must be >= 1") (fun () ->
      ignore (Lesu.protocol ~config:{ Lesu.default_config with threshold = 0 } ()))

(* Feed [states] to the pure description; none of them may elect. *)
let advance ?config states =
  let p = Lesu.protocol ?config () in
  List.fold_left
    (fun st channel ->
      match p.Aggregate.step st channel with
      | Aggregate.Continue st' -> st'
      | Aggregate.Elected -> Alcotest.fail "unexpected election")
    p.Aggregate.init states

let test_stage_progression () =
  let st = advance [] in
  (match Lesu.stage st with
  | Lesu.Estimating 1 -> ()
  | _ -> Alcotest.fail "starts in estimation round 1");
  check_true "no t0 yet" (Lesu.t0 st = None);
  (* Two Nulls finish Estimation(2) in round 1 -> electing. *)
  let st = advance [ Channel.Null; Channel.Null ] in
  (match Lesu.stage st with
  | Lesu.Electing { i = 1; j = 1; eps_hat } ->
      check_float_eps 1e-12 "first guess is eps_1" (Lesu.eps_guess 1) eps_hat
  | _ -> Alcotest.fail "electing after estimation returns");
  match Lesu.t0 st with
  | Some t0 -> check_float "t0 = c * 2^(1+round)" (4.0 *. 4.0) t0
  | None -> Alcotest.fail "t0 must be set"

let test_phase_schedule_advances () =
  let config = { Lesu.c = 0.04; threshold = 2 } in
  let at states =
    match Lesu.stage (advance ~config (Channel.Null :: Channel.Null :: states)) with
    | Lesu.Electing { i; j; _ } -> (i, j)
    | Lesu.Estimating _ -> Alcotest.fail "should still be electing"
  in
  let check_at label expected states =
    let i, j = at states in
    check_true (Printf.sprintf "%s: at (%d,%d)" label i j) ((i, j) = expected)
  in
  (* t0 = 0.04 * 4 = 0.16; dur(1,1) = ceil(3*2*0.16) = 1: one collision
     ends phase (1,1) and moves to (2,1) since j reached i. *)
  check_at "after (1,1)" (2, 1) [ Channel.Collision ];
  (* dur(2,1) = ceil(3*4*0.16) = 2; then (2,2). *)
  check_at "after (2,1)" (2, 2) [ Channel.Collision; Channel.Collision; Channel.Collision ]

let test_single_elects_any_stage () =
  let p = Lesu.protocol () in
  let elects st = p.Aggregate.step st Channel.Single = Aggregate.Elected in
  check_true "single during estimation elects" (elects (advance []));
  check_true "single while electing elects" (elects (advance [ Channel.Null; Channel.Null ]))

let test_elects_without_adversary () =
  List.iter
    (fun n ->
      let result = run_uniform ~n (Lesu.protocol ()) in
      check_true (Printf.sprintf "LESU elects at n=%d" n) result.Metrics.elected)
    [ 2; 16; 256; 4096 ]

let test_elects_under_jamming () =
  List.iter
    (fun eps ->
      let result =
        run_uniform ~eps ~adversary:Adversary.greedy ~n:512 ~max_slots:2_000_000
          (Lesu.protocol ())
      in
      check_true (Printf.sprintf "LESU elects under greedy eps=%.2f" eps)
        result.Metrics.elected)
    [ 0.7; 0.4 ]

let test_exact_engine () =
  let result = run_exact ~n:16 (Lesu.station ()) in
  check_true "exact-engine election" (Metrics.election_ok result)

let test_time_bound_shape () =
  let small_t = Lesu.expected_time_bound ~eps:0.5 ~n:1024 ~window:4 in
  let large_t = Lesu.expected_time_bound ~eps:0.5 ~n:1024 ~window:1_000_000 in
  check_true "T-dominated regime grows with T" (large_t >= 1_000_000.0);
  check_true "small-T regime is polylog" (small_t < 10_000.0)

let suite =
  [
    ("eps_guess sequence", `Quick, test_eps_guess);
    ("phase durations", `Quick, test_phase_duration);
    ("config validation", `Quick, test_config_validation);
    ("stage progression", `Quick, test_stage_progression);
    ("phase schedule advances", `Quick, test_phase_schedule_advances);
    ("Single elects at any stage", `Quick, test_single_elects_any_stage);
    ("elects without adversary", `Quick, test_elects_without_adversary);
    ("elects under jamming", `Slow, test_elects_under_jamming);
    ("exact engine election", `Quick, test_exact_engine);
    ("time-bound shape", `Quick, test_time_bound_shape);
  ]
