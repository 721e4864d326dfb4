(* Quickstart: elect a leader among 1000 stations while an adaptive
   adversary jams half of every 64-slot window.

   Run with:  dune exec examples/quickstart.exe *)

module Prng = Jamming_prng.Prng
module Budget = Jamming_adversary.Budget
module Adversary = Jamming_adversary.Adversary
module Lesk = Jamming_core.Lesk
module Metrics = Jamming_sim.Metrics

let () =
  let n = 1000 in
  let eps = 0.5 (* the adversary must leave an eps fraction of each window *) in
  let window = 64 (* the adversary's T *) in

  (* Every run is reproducible from a seed. *)
  let rng = Prng.create ~seed:2015 in

  (* LESK (Algorithm 1 of the paper): the stations know eps but not n. *)
  let protocol = Lesk.protocol ~eps () in

  (* A greedy (T, 1-eps)-bounded jammer: it jams every slot the budget
     allows.  The budget enforcement is exact, so whatever the strategy
     asks for, the executed jamming is legal. *)
  let adversary = Adversary.greedy () in
  let budget = Budget.create ~window ~eps in

  let result =
    Jamming_sim.Uniform_engine.run ~n ~rng ~protocol ~adversary ~budget ~max_slots:100_000 ()
  in

  Format.printf "@[<v>%a@]@." Metrics.pp_result result;
  (match result.Metrics.leader with
  | Some id -> Format.printf "station %d is the leader.@." id
  | None -> Format.printf "no leader elected (raise max_slots?)@.");
  Format.printf "theory shape max{T, log n/(eps^3 log(1/eps))} = %.0f slots@."
    (Lesk.expected_time_bound ~eps ~n ~window)
