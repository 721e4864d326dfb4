module Linalg = Jamming_stats.Linalg
module Markov = Jamming_core.Markov
open Test_util

let test_solve_identity () =
  let a = [| [| 1.0; 0.0 |]; [| 0.0; 1.0 |] |] in
  let x = Linalg.solve a [| 3.0; 4.0 |] in
  Alcotest.(check (array (float 1e-12))) "identity" [| 3.0; 4.0 |] x

let test_solve_known_system () =
  (* 2x + y = 5; x - y = 1  ->  x = 2, y = 1 *)
  let a = [| [| 2.0; 1.0 |]; [| 1.0; -1.0 |] |] in
  let x = Linalg.solve a [| 5.0; 1.0 |] in
  Alcotest.(check (array (float 1e-12))) "2x2" [| 2.0; 1.0 |] x

let test_solve_needs_pivoting () =
  (* Leading zero forces a row swap. *)
  let a = [| [| 0.0; 1.0 |]; [| 1.0; 0.0 |] |] in
  let x = Linalg.solve a [| 7.0; 9.0 |] in
  Alcotest.(check (array (float 1e-12))) "pivoted" [| 9.0; 7.0 |] x

let test_solve_singular () =
  let a = [| [| 1.0; 2.0 |]; [| 2.0; 4.0 |] |] in
  Alcotest.check_raises "singular" (Failure "Linalg.solve: singular matrix") (fun () ->
      ignore (Linalg.solve a [| 1.0; 2.0 |]))

let test_solve_shape_validation () =
  Alcotest.check_raises "rhs mismatch" (Invalid_argument "Linalg: rhs length mismatch")
    (fun () -> ignore (Linalg.solve [| [| 1.0 |] |] [| 1.0; 2.0 |]))

let test_inputs_not_mutated () =
  let a = [| [| 2.0; 1.0 |]; [| 1.0; -1.0 |] |] in
  let b = [| 5.0; 1.0 |] in
  ignore (Linalg.solve a b);
  Alcotest.(check (array (float 0.0))) "rhs untouched" [| 5.0; 1.0 |] b;
  Alcotest.(check (array (float 0.0))) "matrix row untouched" [| 2.0; 1.0 |] a.(0)

let prop_solve_random_systems =
  qtest ~count:100 "random diagonally-dominant systems solve with tiny residuals"
    QCheck.(pair (int_range 1 25) small_int)
    (fun (n, seed) ->
      let g = Prng.create ~seed in
      let a =
        Array.init n (fun i ->
            Array.init n (fun j ->
                let v = (2.0 *. Prng.float g) -. 1.0 in
                if i = j then v +. (2.0 *. float_of_int n) else v))
      in
      let b = Array.init n (fun _ -> (20.0 *. Prng.float g) -. 10.0) in
      let x = Linalg.solve a b in
      Linalg.residual_norm a x b < 1e-8)

(* --- the Markov anchor --- *)

let test_markov_n1 () =
  (* A single station transmits with probability 2^-u; election happens
     on the first transmission (always a Single).  From u = 0, p = 1,
     so E[T] = 1 exactly. *)
  let r = Markov.expected_election_time ~n:1 ~a:16 () in
  check_float_eps 1e-9 "single station elects in one slot" 1.0
    r.Markov.expected_slots

let test_markov_matches_simulation () =
  let n = 256 and a = 16 in
  let analytic = Markov.expected_election_time ~n ~a () in
  let reps = 600 in
  let sum = ref 0.0 in
  for seed = 1 to reps do
    let r = run_uniform ~seed ~eps:0.5 ~n (Jamming_core.Lesk.protocol ~eps:0.5 ()) in
    sum := !sum +. float_of_int r.Metrics.slots
  done;
  let sim_mean = !sum /. float_of_int reps in
  check_true
    (Printf.sprintf "analytic %.2f vs simulated %.2f within 5%%"
       analytic.Markov.expected_slots sim_mean)
    (Float.abs (analytic.Markov.expected_slots -. sim_mean)
    < 0.05 *. analytic.Markov.expected_slots)

let test_markov_truncation_negligible () =
  let r = Markov.expected_election_time ~n:1024 ~a:16 () in
  check_true "truncation mass negligible" (r.Markov.truncation_mass < 1e-9)

let test_markov_monotone_in_n () =
  let e n = (Markov.expected_election_time ~n ~a:16 ()).Markov.expected_slots in
  check_true "E[T] grows with n" (e 16 < e 256 && e 256 < e 4096)

let test_markov_validation () =
  Alcotest.check_raises "n = 0" (Invalid_argument "Markov: n must be >= 1") (fun () ->
      ignore (Markov.expected_election_time ~n:0 ~a:16 ()))

let suite =
  [
    ("solve identity", `Quick, test_solve_identity);
    ("solve 2x2", `Quick, test_solve_known_system);
    ("solve with pivoting", `Quick, test_solve_needs_pivoting);
    ("singular detected", `Quick, test_solve_singular);
    ("shape validation", `Quick, test_solve_shape_validation);
    ("inputs not mutated", `Quick, test_inputs_not_mutated);
    prop_solve_random_systems;
    ("Markov: n = 1 closed form", `Quick, test_markov_n1);
    ("Markov matches simulation", `Slow, test_markov_matches_simulation);
    ("Markov truncation negligible", `Quick, test_markov_truncation_negligible);
    ("Markov monotone in n", `Quick, test_markov_monotone_in_n);
    ("Markov validation", `Quick, test_markov_validation);
  ]
