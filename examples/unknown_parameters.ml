(* The paper's headline feature: the stations know NOTHING — not the
   network size n, not the adversary's window T, not the jamming
   tolerance eps.  LESU (Algorithm 2) first estimates max{log n, T} with
   the jamming-robust Estimation function, then sweeps guessed
   tolerances eps_j = 2^{-j/3} through time-boxed LESK runs.

   This example traces the whole ladder.

   Run with:  dune exec examples/unknown_parameters.exe *)

module Prng = Jamming_prng.Prng
module Budget = Jamming_adversary.Budget
module Adversary = Jamming_adversary.Adversary
module Lesu = Jamming_core.Lesu
module Metrics = Jamming_sim.Metrics
module Aggregate = Jamming_sim.Aggregate

let () =
  let n = 5000 and eps = 0.5 and window = 128 in
  Format.printf
    "n = %d stations (unknown to them), adversary: (T = %d, 1 - %.1f)-bounded (also \
     unknown).@.@."
    n window eps;
  (* Run LESU's pure description on the uniform engine and replay its
     state from the slot records, so the trace can read it after every
     slot. *)
  let lesu = Lesu.protocol () in
  let state = ref lesu.Aggregate.init in
  let last_stage = ref (Lesu.stage !state) in
  let describe slot = function
    | Lesu.Estimating round -> Format.printf "slot %6d: estimation, round %d@." slot round
    | Lesu.Electing { i; j; eps_hat } ->
        Format.printf "slot %6d: LESK phase (i=%d, j=%d), guessed eps = %.3f@." slot i j
          eps_hat
  in
  let trace (r : Metrics.slot_record) =
    match lesu.Aggregate.step !state r.Metrics.state with
    | Aggregate.Elected -> Format.printf "slot %6d: leader elected.@." r.Metrics.slot
    | Aggregate.Continue s ->
        state := s;
        let stage = Lesu.stage s in
        if stage <> !last_stage then begin
          describe r.Metrics.slot stage;
          last_stage := stage
        end
  in
  let rng = Prng.create ~seed:99 in
  let budget = Budget.create ~window ~eps in
  let result =
    Jamming_sim.Uniform_engine.run
      ~observers:[ Jamming_sim.Observer.of_on_slot trace ]
      ~n ~rng ~protocol:lesu
      ~adversary:(Adversary.greedy ())
      ~budget ~max_slots:2_000_000 ()
  in
  Format.printf "@.%a@." Metrics.pp_result result;
  (match Lesu.t0 !state with
  | Some t0 ->
      Format.printf
        "Estimation produced t0 = %.0f (a stand-in for c*max{log n = %.1f, T = %d}).@." t0
        (Float.log2 (float_of_int n))
        window
  | None -> ());
  Format.printf
    "True eps was %.2f; the schedule only needed a guess within a factor 2 (eps_j = \
     2^(-j/3) sweeps that grid).@."
    eps
