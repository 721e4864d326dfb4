module Estimation = Jamming_core.Estimation
module Size_approx = Jamming_core.Size_approx
open Test_util

let nulls k = List.init k (fun _ -> Channel.Null)
let collisions k = List.init k (fun _ -> Channel.Collision)

(* Feed a state sequence to [Estimation.step] from [from] (default
   [init]), stopping where it stops. *)
let run_step ?(from = Estimation.init) ~threshold states =
  let rec go s = function
    | [] -> `Running s
    | st :: rest -> (
        match Estimation.step ~threshold s st with
        | Estimation.Running s -> go s rest
        | Returned r -> `Returned r
        | Singled -> `Singled)
  in
  go from states

let running = function
  | `Running s -> s
  | `Returned r -> Alcotest.failf "returned %d, expected to keep running" r
  | `Singled -> Alcotest.fail "unexpected Single"

let test_validation () =
  Alcotest.check_raises "protocol, threshold 0"
    (Invalid_argument "Estimation.protocol: threshold must be >= 1") (fun () ->
      ignore (Estimation.protocol ~threshold:0 ()));
  Alcotest.check_raises "Size_approx.run, threshold 0"
    (Invalid_argument "Size_approx.run: threshold must be >= 1") (fun () ->
      ignore
        (Size_approx.run ~threshold:0 ~n:4 ~rng:(Prng.create ~seed:1)
           ~adversary:(Adversary.none ()) ~budget:(Budget.create ~window:4 ~eps:0.5)
           ~max_slots:10 ()))

let test_round_structure () =
  let s = Estimation.init in
  check_int "round starts at 1" 1 s.Estimation.round;
  check_float "round-1 probability is 2^-2" 0.25 (Estimation.tx_prob s);
  (* Round 1 has 2 slots; feed 2 collisions -> advance to round 2. *)
  let s = running (run_step ~from:s ~threshold:2 (collisions 2)) in
  check_int "round 2 after 2 slots" 2 s.Estimation.round;
  check_float "round-2 probability is 2^-4" (1.0 /. 16.0) (Estimation.tx_prob s);
  (* Round 2 has 4 slots. *)
  let s = running (run_step ~from:s ~threshold:2 (collisions 4)) in
  check_int "round 3 after 4 more" 3 s.Estimation.round

let test_returns_on_enough_nulls () =
  (* Round 1 (2 slots) with 2 Nulls meets L = 2 immediately. *)
  match run_step ~threshold:2 (nulls 2) with
  | `Returned 1 -> ()
  | `Returned r -> Alcotest.failf "returned %d, expected 1" r
  | `Singled -> Alcotest.fail "unexpected Single"
  | `Running _ -> Alcotest.fail "should have returned"

let test_nulls_must_be_in_one_round () =
  (* One Null in round 1 does not carry over; round 2 (4 slots) is fed
     only 3 slots with a single Null, so the estimation is still
     mid-round. *)
  let states = [ Channel.Null; Channel.Collision ] @ collisions 2 @ [ Channel.Null ] in
  match run_step ~threshold:2 states with
  | `Running s -> check_int "still in round 2" 2 s.Estimation.round
  | `Returned r -> Alcotest.failf "returned %d too early" r
  | `Singled -> Alcotest.fail "unexpected Single"

let test_single_stops_everything () =
  match run_step ~threshold:2 (collisions 3 @ [ Channel.Single ]) with
  | `Singled -> ()
  | _ -> Alcotest.fail "Single must end the estimation"

let test_threshold_one () =
  match run_step ~threshold:1 [ Channel.Collision; Channel.Null ] with
  | `Returned 1 -> ()
  | _ -> Alcotest.fail "L=1 returns on the first Null-bearing round"

let test_probability_underflows_gracefully () =
  (* Push to a very high round. *)
  let s = ref Estimation.init in
  for r = 1 to 69 do
    for _ = 1 to 1 lsl Stdlib.min r 22 do
      match Estimation.step ~threshold:2 !s Channel.Collision with
      | Estimation.Running next -> s := next
      | Returned _ | Singled -> Alcotest.fail "Collisions never stop the estimation"
    done
  done;
  let p = Estimation.tx_prob !s in
  check_true "probability stays a valid float" (p >= 0.0 && p <= 1.0)

(* --- Lemma 2.8 in simulation (via Size_approx, which wraps Estimation) --- *)

let run_estimation ~seed ~n ~window ~adversary =
  let rng = Prng.create ~seed in
  let budget = Budget.create ~window ~eps:0.5 in
  Size_approx.run ~n ~rng ~adversary:(adversary ()) ~budget
    ~max_slots:(Stdlib.max 200_000 (64 * window)) ()

let test_band_no_adversary () =
  List.iter
    (fun n ->
      let in_band = ref 0 and total = 30 in
      for seed = 1 to total do
        match run_estimation ~seed ~n ~window:16 ~adversary:Adversary.none with
        | Size_approx.Estimate { round; _ } ->
            if Size_approx.within_lemma_2_8_band ~round ~n ~window:16 then incr in_band
        | Size_approx.Leader_elected _ -> incr in_band
        | Size_approx.Exhausted _ -> ()
      done;
      check_true
        (Printf.sprintf "n=%d: %d/%d runs in the Lemma 2.8 band" n !in_band total)
        (!in_band >= total - 1))
    [ 128; 4096; 65536 ]

let test_band_under_greedy_jamming () =
  let n = 4096 and window = 64 in
  let ok = ref 0 and total = 30 in
  for seed = 100 to 100 + total - 1 do
    match run_estimation ~seed ~n ~window ~adversary:Adversary.greedy with
    | Size_approx.Estimate { round; _ } ->
        if Size_approx.within_lemma_2_8_band ~round ~n ~window then incr ok
    | Size_approx.Leader_elected _ -> incr ok
    | Size_approx.Exhausted _ -> ()
  done;
  check_true (Printf.sprintf "greedy: %d/%d in band" !ok total) (!ok >= total - 2)

let test_time_bound () =
  (* Lemma 2.8: O(max{log n, T}) slots. *)
  let n = 65536 and window = 16 in
  match run_estimation ~seed:5 ~n ~window ~adversary:Adversary.none with
  | Size_approx.Estimate { slots; _ } | Size_approx.Leader_elected { slots } ->
      check_true
        (Printf.sprintf "estimation used %d slots for log n = 16" slots)
        (slots <= 64 * 16)
  | Size_approx.Exhausted _ -> Alcotest.fail "estimation did not finish"

let test_n_hat_polynomial () =
  (* n_hat = 2^(2^round) is within [sqrt n, n^4] when the round is in band
     and T <= log n. *)
  let n = 65536 in
  match run_estimation ~seed:6 ~n ~window:8 ~adversary:Adversary.none with
  | Size_approx.Estimate { n_hat; round; _ } ->
      check_true "round in band" (Size_approx.within_lemma_2_8_band ~round ~n ~window:8);
      let nf = float_of_int n in
      check_true
        (Printf.sprintf "n_hat = %g within [sqrt n, n^4]" n_hat)
        (n_hat >= sqrt nf && n_hat <= nf ** 4.0)
  | Size_approx.Leader_elected _ -> () (* acceptable per the lemma *)
  | Size_approx.Exhausted _ -> Alcotest.fail "no estimate"

let test_uniform_wrapper_stops_transmitting () =
  let p = Estimation.protocol ~threshold:2 () in
  (* Feed Nulls until it returns; afterwards tx_prob must be 0, and it
     stays returned. *)
  let s = walk p p.Aggregate.init (nulls 2) in
  check_float "post-return probability 0" 0.0 (p.Aggregate.tx_prob s);
  check_true "stays returned" (walk p s (collisions 5) = Estimation.Returned 1)

let suite =
  [
    ("validation", `Quick, test_validation);
    ("round structure", `Quick, test_round_structure);
    ("returns on enough Nulls", `Quick, test_returns_on_enough_nulls);
    ("Null quota is per round", `Quick, test_nulls_must_be_in_one_round);
    ("Single stops estimation", `Quick, test_single_stops_everything);
    ("threshold one", `Quick, test_threshold_one);
    ("deep rounds underflow gracefully", `Quick, test_probability_underflows_gracefully);
    ("Lemma 2.8 band, benign channel", `Slow, test_band_no_adversary);
    ("Lemma 2.8 band, greedy jamming", `Slow, test_band_under_greedy_jamming);
    ("Lemma 2.8 time bound", `Quick, test_time_bound);
    ("size estimate is polynomial", `Quick, test_n_hat_polynomial);
    ("uniform wrapper goes quiet after returning", `Quick, test_uniform_wrapper_stops_transmitting);
  ]
