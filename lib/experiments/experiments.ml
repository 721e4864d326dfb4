let all =
  [
    Exp_lesk_scaling_n.experiment;
    Exp_lesk_scaling_t.experiment;
    Exp_lesk_eps.experiment;
    Exp_lower_bound.experiment;
    Exp_estimation.experiment;
    Exp_lesu_scaling.experiment;
    Exp_notification.experiment;
    Exp_vs_arss.experiment;
    Exp_adversary_ablation.experiment;
    Exp_success_probability.experiment;
    Exp_slot_taxonomy.experiment;
    Exp_energy.experiment;
    Exp_no_cd.experiment;
    Exp_u_walk.experiment;
    Exp_time_distribution.experiment;
    Exp_fairness.experiment;
    Exp_size_refine.experiment;
    Exp_energy_cap.experiment;
    Exp_engine_equivalence.experiment;
    Exp_step_ablation.experiment;
    Exp_lesu_calibration.experiment;
    Exp_estimation_threshold.experiment;
    Exp_markov.experiment;
    Exp_fault_tolerance.experiment;
    Exp_churn.experiment;
    Exp_aggregate_equivalence.experiment;
    Exp_awake_scaling.experiment;
    Exp_energy_jamming.experiment;
  ]

let find key =
  let key = String.lowercase_ascii key in
  List.find_opt
    (fun e ->
      String.lowercase_ascii e.Registry.id = key || String.lowercase_ascii e.Registry.name = key)
    all

let run_one ?telemetry ~scale out e =
  Registry.pp_header (Output.ppf out) e;
  Output.begin_experiment out ~id:e.Registry.id;
  match telemetry with
  | None -> e.Registry.run scale out
  | Some tel ->
      (* Meter the whole experiment: install the sink as the process
         default (so every Runner.replicate inside contributes) and time
         it; Gauges deltas around this call give total slots whatever
         path the experiment takes into the engines. *)
      let wall = Jamming_telemetry.Telemetry.timer tel "experiment.wall" in
      Runner.with_telemetry tel (fun () ->
          Jamming_telemetry.Telemetry.time wall (fun () -> e.Registry.run scale out))
