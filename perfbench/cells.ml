(* The four workloads: which cells each one runs, on how many domains,
   and whether it goes through the run store.  Cells are built through
   a [wrap] so the traced pass can substitute instrumented closures
   without changing a cell's name, seed tag or store key. *)

module R = Jamming_experiments.Runner
module Specs = Jamming_experiments.Specs
module Channel = Jamming_channel.Channel
module Core = Jamming_core

type kind = Sweep_cold | Sweep_warm | Pooled_weakcd | Lmr_sleep

let all = [ Sweep_cold; Sweep_warm; Pooled_weakcd; Lmr_sleep ]

let name = function
  | Sweep_cold -> "sweep-cold"
  | Sweep_warm -> "sweep-warm"
  | Pooled_weakcd -> "pooled-weakcd"
  | Lmr_sleep -> "lmr-sleep"

let of_name s = List.find_opt (fun k -> name k = s) all

type wrap = {
  engine : R.engine -> R.engine;
  adversary : Specs.adversary -> Specs.adversary;
}

let no_wrap = { engine = Fun.id; adversary = Fun.id }

(* Sweep workloads run on J = min(2, nproc) domains; the per-station
   workloads on one, so their numbers do not depend on the host's
   core count. *)
let sweep_jobs () = Int.min 2 (Domain.recommended_domain_count ())
let jobs = function Sweep_cold | Sweep_warm -> sweep_jobs () | Pooled_weakcd | Lmr_sleep -> 1
let uses_store = function Sweep_cold | Sweep_warm -> true | Pooled_weakcd | Lmr_sleep -> false

(* [smoke] shrinks every cell to at most two reps: enough to exercise
   each code path, not to measure it. *)
let cell ~wrap ~smoke ~seed ?churn ?restart_after ?energy ~engine ~reps setup adversary =
  R.Cell.v ~base_seed:seed ?churn ?restart_after ?energy ~engine:(wrap.engine engine)
    ~reps:(if smoke then Int.min 2 reps else reps)
    setup (wrap.adversary adversary)

let sweep_adversaries = [ Specs.greedy; Specs.random_jam ~p:0.5; Specs.front_loaded ]

(* Every backend the runner can select.  Reps are chosen so the uniform,
   the aggregate, and the exact + faulty + pooled + churn groups each
   take about a third of single-domain compute. *)
let sweep ~wrap ~smoke ~seed =
  let cell = cell ~wrap ~smoke ~seed in
  let setup ~n ~max_slots = { R.n; eps = 0.5; window = 64; max_slots } in
  let uniform =
    List.concat_map
      (fun (protocol, reps) ->
        List.concat_map
          (fun n ->
            List.map
              (fun adv ->
                cell ~engine:(R.Uniform protocol) ~reps
                  (setup ~n ~max_slots:2_000_000) adv)
              sweep_adversaries)
          [ 256; 4096; 65536 ])
      [ (Specs.lesk ~eps:0.5, 2400); (Specs.lesu (), 2400) ]
  in
  let aggregate =
    List.concat_map
      (fun (engine, reps) ->
        List.concat_map
          (fun n ->
            List.map
              (fun adv -> cell ~engine ~reps (setup ~n ~max_slots:200_000) adv)
              sweep_adversaries)
          [ 10_000_000; 1_000_000_000 ])
      [ (R.aggregate_lesk ~eps:0.5 (), 960); (R.aggregate_lesu (), 1440) ]
  in
  let lesk_exact =
    R.Exact { name = "LESK-exact"; cd = Channel.Strong_cd; factory = Core.Lesk.station ~eps:0.5 }
  in
  let exact =
    List.map
      (fun (n, reps) -> cell ~engine:lesk_exact ~reps (setup ~n ~max_slots:200_000) Specs.greedy)
      [ (64, 600); (1024, 24) ]
  in
  let faulty =
    cell
      ~engine:
        (R.Faulty
           {
             name = "LESK";
             cd = Channel.Strong_cd;
             factory = Core.Lesk.station ~eps:0.5;
             faults = Jamming_faults.Config.none;
             monitor_checks = None;
           })
      ~reps:600
      (setup ~n:64 ~max_slots:200_000)
      Specs.greedy
  in
  (* Shaped like experiment A7: the adaptive leader killer, grace 2T. *)
  let churn =
    cell
      ~engine:
        (R.Exact { name = "LESK"; cd = Channel.Strong_cd; factory = Core.Lesk.station ~eps:0.5 })
      ~churn:(Jamming_faults.Churn.Leader_killer { grace = 64; max_kills = 4 })
      ~restart_after:800_000 ~reps:150
      { R.n = 64; eps = 0.5; window = 32; max_slots = 200_000 }
      Specs.greedy
  in
  let pooled =
    cell ~engine:(R.pooled_lewk ~eps:0.5 ()) ~reps:48 (setup ~n:256 ~max_slots:2_000_000)
      Specs.greedy
  in
  uniform @ aggregate @ exact @ [ faulty; pooled; churn ]

(* LEWK runs under the greedy jammer and LEWU under the periodic one:
   with those, an election's slot count is the same on every seed
   (LEWU under greedy doubles its estimate a random number of times),
   so the pass measures the hot path rather than which seed was drawn. *)
let pooled_weakcd ~wrap ~smoke ~seed =
  let cell = cell ~wrap ~smoke ~seed in
  let setup n = { R.n; eps = 0.5; window = 64; max_slots = 2_000_000 } in
  [
    cell ~engine:(R.pooled_lewk ~eps:0.5 ()) ~reps:24 (setup 1_000) Specs.greedy;
    cell ~engine:(R.pooled_lewu ()) ~reps:3 (setup 10_000) Specs.periodic;
  ]

(* Unjammed LMR at n = 1e4..1e6 is bound by construction and by the
   work after the slot loop; jammed LMR is bound by the slot loop, and
   its cycle count is heavy-tailed, so it runs where many reps are
   cheap enough to average it. *)
let lmr_sleep ~wrap ~smoke ~seed =
  let cell = cell ~wrap ~smoke ~seed ~energy:true in
  let setup n = { R.n; eps = 0.5; window = 64; max_slots = 2_000_000 } in
  List.map
    (fun (n, reps) -> cell ~engine:(R.pooled_lmr ()) ~reps (setup n) Specs.no_jamming)
    [ (10_000, 40); (100_000, 8); (1_000_000, 1) ]
  @ [ cell ~engine:(R.pooled_lmr ()) ~reps:40 (setup 10_000) Specs.greedy ]

let cells ?(wrap = no_wrap) ~smoke ~seed = function
  | Sweep_cold | Sweep_warm -> sweep ~wrap ~smoke ~seed
  | Pooled_weakcd -> pooled_weakcd ~wrap ~smoke ~seed
  | Lmr_sleep -> lmr_sleep ~wrap ~smoke ~seed
