module Arss = Jamming_baselines.Arss_mac
module Willard = Jamming_baselines.Willard
module NO = Jamming_baselines.Nakano_olariu
module Backoff = Jamming_baselines.Backoff
open Test_util

let test_arss_config () =
  let cfg = Arss.config ~n:1024 ~window:64 in
  check_true "gamma positive and small" (cfg.Arss.gamma > 0.0 && cfg.Arss.gamma < 0.1);
  check_float "p_hat is 1/24" (1.0 /. 24.0) cfg.Arss.p_hat;
  let cfg_big = Arss.config ~n:1024 ~window:65536 in
  check_true "gamma shrinks with T" (cfg_big.Arss.gamma < cfg.Arss.gamma)

let test_arss_validation () =
  let cfg = Arss.config ~n:64 ~window:16 in
  Alcotest.check_raises "bad gamma" (Invalid_argument "Arss_mac: gamma must be positive")
    (fun () -> ignore (Arss.protocol { cfg with Arss.gamma = 0.0 }));
  Alcotest.check_raises "initial_p above cap"
    (Invalid_argument "Arss_mac: initial_p out of range") (fun () ->
      ignore (Arss.protocol { cfg with Arss.initial_p = 0.5 }))

let test_arss_elects_benign () =
  List.iter
    (fun n ->
      let result =
        run_uniform ~n ~max_slots:500_000 (Arss.protocol (Arss.config ~n ~window:32))
      in
      check_true (Printf.sprintf "ARSS elects at n=%d" n) result.Metrics.elected)
    [ 4; 64; 1024 ]

let test_arss_elects_under_jamming () =
  let n = 256 in
  let result =
    run_uniform ~n ~adversary:Adversary.greedy ~max_slots:2_000_000
      (Arss.protocol (Arss.config ~n ~window:32))
  in
  check_true "ARSS is robust (it is the paper's robust baseline)" result.Metrics.elected

let test_arss_probability_decreases_on_busy_channel () =
  let p = Arss.protocol (Arss.config ~n:1024 ~window:64) in
  let p0 = p.Aggregate.tx_prob p.Aggregate.init in
  (* The threshold grows by 2 per back-off, so d decreases cost ~d^2
     collision rounds: 8000 rounds buy ~88 decreases of (1+gamma). *)
  let s = walk p p.Aggregate.init (List.init 8_000 (fun _ -> Channel.Collision)) in
  check_true "multiplicative decrease under sustained collisions"
    (p.Aggregate.tx_prob s < p0 /. 2.0)

let test_arss_probability_capped () =
  let cfg = Arss.config ~n:64 ~window:16 in
  let p = Arss.protocol cfg in
  let s = walk p p.Aggregate.init (List.init 5000 (fun _ -> Channel.Null)) in
  check_true "p never exceeds p_hat" (p.Aggregate.tx_prob s <= cfg.Arss.p_hat +. 1e-12)

let test_willard_fast_benign () =
  List.iter
    (fun n ->
      let result = run_uniform ~n ~max_slots:10_000 Willard.protocol in
      check_true (Printf.sprintf "Willard elects at n=%d" n) result.Metrics.elected;
      check_true
        (Printf.sprintf "Willard is loglog-fast at n=%d: %d slots" n result.Metrics.slots)
        (result.Metrics.slots <= 200))
    [ 4; 256; 65536 ]

let test_willard_suffers_under_jamming () =
  (* Not a theorem — a demonstration that fake Collisions mislead the
     binary search: the same election takes far longer. *)
  let n = 1024 in
  let benign = run_uniform ~seed:5 ~n ~max_slots:3_000_000 Willard.protocol in
  let jammed =
    run_uniform ~seed:5 ~n ~eps:0.3 ~window:64 ~adversary:Adversary.greedy
      ~max_slots:3_000_000 Willard.protocol
  in
  check_true "jamming slows Willard dramatically (or kills it)"
    ((not jammed.Metrics.elected)
    || jammed.Metrics.slots > 20 * Stdlib.max 1 benign.Metrics.slots)

let test_sawtooth_elects () =
  List.iter
    (fun n ->
      let result = run_uniform ~n ~max_slots:200_000 NO.sawtooth in
      check_true (Printf.sprintf "sawtooth elects at n=%d" n) result.Metrics.elected)
    [ 2; 32; 1024 ]

let test_sawtooth_probability_cycle () =
  let p = NO.sawtooth in
  (* Round 1 probes j=1; round 2 probes j=1,2; ... *)
  let expected = [ 0.5; 0.5; 0.25; 0.5; 0.25; 0.125 ] in
  ignore
    (List.fold_left
       (fun s e ->
         check_float "sawtooth probe sequence" e (p.Aggregate.tx_prob s);
         walk p s [ Channel.Collision ])
       p.Aggregate.init expected)

let test_geometric_sweep_elects () =
  let result = run_uniform ~n:128 ~max_slots:200_000 NO.geometric_sweep in
  check_true "geometric sweep elects" result.Metrics.elected

let test_backoff_elects_benign () =
  let result = run_uniform ~n:64 ~max_slots:100_000 Backoff.protocol in
  check_true "backoff elects on a clear channel" result.Metrics.elected

let test_backoff_starves_under_jamming () =
  (* The canonical divergence: every jam looks like a Collision and
     doubles the backoff; with eps=0.25 the channel is 75% jammed. *)
  let result =
    run_uniform ~seed:11 ~n:64 ~eps:0.25 ~window:32 ~adversary:Adversary.greedy
      ~max_slots:100_000 Backoff.protocol
  in
  let benign = run_uniform ~seed:11 ~n:64 ~max_slots:100_000 Backoff.protocol in
  check_true "jamming starves backoff"
    ((not result.Metrics.elected) || result.Metrics.slots > 10 * benign.Metrics.slots)

let test_backoff_counter_moves () =
  let p = Backoff.protocol in
  check_float "starts at p=1" 1.0 (p.Aggregate.tx_prob p.Aggregate.init);
  let b = walk p p.Aggregate.init [ Channel.Collision ] in
  check_float "halves on collision" 0.5 (p.Aggregate.tx_prob b);
  check_float "doubles back on null" 1.0 (p.Aggregate.tx_prob (walk p b [ Channel.Null ]));
  let capped = walk p b (List.init 100 (fun _ -> Channel.Collision)) in
  check_float "exponent capped at 60" (Float.exp2 (-60.0)) (p.Aggregate.tx_prob capped)

let test_known_n_properties () =
  let p = Backoff.known_n ~n:64 in
  check_float "p = 1/n" (1.0 /. 64.0) (p.Aggregate.tx_prob p.Aggregate.init);
  let result = run_uniform ~n:64 ~max_slots:10_000 p in
  check_true "known-n elects quickly" (result.Metrics.elected && result.Metrics.slots < 500)

let test_known_n_validation () =
  Alcotest.check_raises "n = 0" (Invalid_argument "Backoff.known_n: n must be >= 1")
    (fun () -> ignore (Backoff.known_n ~n:0))

let suite =
  [
    ("ARSS config", `Quick, test_arss_config);
    ("ARSS validation", `Quick, test_arss_validation);
    ("ARSS elects, benign", `Quick, test_arss_elects_benign);
    ("ARSS elects under jamming", `Slow, test_arss_elects_under_jamming);
    ("ARSS multiplicative decrease", `Quick, test_arss_probability_decreases_on_busy_channel);
    ("ARSS probability cap", `Quick, test_arss_probability_capped);
    ("Willard loglog-fast benign", `Quick, test_willard_fast_benign);
    ("Willard fragile under jamming", `Slow, test_willard_suffers_under_jamming);
    ("sawtooth elects", `Quick, test_sawtooth_elects);
    ("sawtooth probe cycle", `Quick, test_sawtooth_probability_cycle);
    ("geometric sweep elects", `Quick, test_geometric_sweep_elects);
    ("backoff elects benign", `Quick, test_backoff_elects_benign);
    ("backoff starves under jamming", `Slow, test_backoff_starves_under_jamming);
    ("backoff counter dynamics", `Quick, test_backoff_counter_moves);
    ("known-n reference", `Quick, test_known_n_properties);
    ("known-n validation", `Quick, test_known_n_validation);
  ]
