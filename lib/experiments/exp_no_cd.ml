module Channel = Jamming_channel.Channel
module Prng = Jamming_prng.Prng
module Budget = Jamming_adversary.Budget
module Metrics = Jamming_sim.Metrics
module D = Jamming_stats.Descriptive

(* Run on the exact engine, recording the first true Single (the
   selection-resolution event) separately from protocol completion. *)
let run_cell ~cd ~n ~eps ~window ~max_slots ~factory ~adversary ~seed =
  let first_single = ref None in
  let on_slot (r : Metrics.slot_record) =
    if !first_single = None && Channel.equal_state r.Metrics.state Channel.Single then
      first_single := Some r.Metrics.slot
  in
  let rng = Prng.create ~seed in
  let stations = Jamming_sim.Engine.make_stations ~n ~rng factory in
  let budget = Budget.create ~window ~eps in
  let adv = adversary.Specs.a_make ~seed ~n ~eps ~window () in
  let result =
    Jamming_sim.Engine.run
      ~observers:[ Jamming_sim.Observer.of_on_slot on_slot ]
      ~cd ~adversary:adv ~budget ~max_slots ~stations ()
  in
  (!first_single, result)

let run scale out =
  let ppf = Output.ppf out in
  let reps = match scale with Registry.Quick -> 12 | Registry.Full -> 40 in
  let n = 64 and eps = 0.5 and window = 32 and max_slots = 100_000 in
  let sawtooth = Jamming_sim.Aggregate.distributed Jamming_baselines.Nakano_olariu.sawtooth in
  let cells =
    [
      ("sawtooth", "no-CD", Channel.No_cd, sawtooth, Specs.no_jamming);
      ("sawtooth", "no-CD", Channel.No_cd, sawtooth, Specs.greedy);
      ("LESK(0.5)", "no-CD", Channel.No_cd, Jamming_core.Lesk.station ~eps, Specs.greedy);
      ("LEWK", "weak-CD", Channel.Weak_cd, Jamming_core.Lewk.station ~eps (), Specs.greedy);
      ("LEWK", "no-CD", Channel.No_cd, Jamming_core.Lewk.station ~eps (), Specs.greedy);
    ]
  in
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "E13: the no-CD open problem (n = %d, eps = %.1f, T = %d, cap %d slots)" n eps
           window max_slots)
      ~columns:
        [
          ("protocol", Table.Left);
          ("CD model", Table.Left);
          ("adversary", Table.Left);
          ("1st Single (med)", Table.Right);
          ("Single rate", Table.Right);
          ("full election", Table.Right);
        ]
  in
  List.iter
    (fun (name, cd_name, cd, factory, adversary) ->
      let singles = ref [] and got_single = ref 0 and completed = ref 0 in
      for rep = 1 to reps do
        let seed = Prng.seed_of_string (Printf.sprintf "E13/%s/%s/%s/%d" name cd_name adversary.Specs.a_name rep) in
        let first, result =
          run_cell ~cd ~n ~eps ~window ~max_slots ~factory ~adversary ~seed
        in
        (match first with
        | Some s ->
            incr got_single;
            singles := float_of_int s :: !singles
        | None -> ());
        if Metrics.election_ok result then incr completed
      done;
      let repsf = float_of_int reps in
      Table.add_row table
        [
          name;
          cd_name;
          adversary.Specs.a_name;
          (if !singles = [] then "never" else Table.fmt_float (D.median (Array.of_list !singles)));
          Table.fmt_pct (float_of_int !got_single /. repsf);
          Table.fmt_pct (float_of_int !completed /. repsf);
        ])
    cells;
  Output.table out table;
  Format.fprintf ppf
    "Three observations, as §4 anticipates: (1) the oblivious sawtooth still gets a \
     Single in no-CD — the jammer can only erase successes, not steer a protocol that \
     ignores feedback; (2) LESK's feedback becomes useless in no-CD: every slot reads \
     Collision, so u climbs monotonically — the protocol degenerates into a single \
     one-way probability sweep that happens to cross 1/n once (it found a Single here) \
     but can never stabilize or retry after overshooting; (3) in every no-CD row the \
     'full election' column is 0%%: the winner cannot learn it won, and even the LEWK \
     handshake that completes 100%% of weak-CD elections is stuck — its final step, the \
     leader hearing a Null in C1, is unobservable without collision detection.  A \
     terminating, jamming-robust election for no-CD is exactly the paper's open \
     problem.@."

let experiment =
  {
    Registry.id = "E13";
    name = "no-cd-frontier";
    claim =
      "Section 4 (open problem): without collision detection a jammer cannot be \
       distinguished from silence; selection resolution survives obliviously but \
       feedback-driven estimation and the termination handshake both break.";
    run;
  }
