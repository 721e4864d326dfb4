module Aggregate = Jamming_sim.Aggregate
module Channel = Jamming_channel.Channel

type outcome =
  | Estimate of { round : int; n_hat : float; slots : int }
  | Leader_elected of { slots : int }
  | Exhausted of { slots : int }

let pp_outcome ppf = function
  | Estimate { round; n_hat; slots } ->
      Format.fprintf ppf "estimate: round %d (n-hat = %g) after %d slots" round n_hat slots
  | Leader_elected { slots } ->
      Format.fprintf ppf "leader elected during estimation after %d slots" slots
  | Exhausted { slots } -> Format.fprintf ppf "no estimate within %d slots" slots

let estimator ?(threshold = 2) () =
  if threshold < 1 then invalid_arg "Size_approx.run: threshold must be >= 1";
  {
    Aggregate.name = "SizeApprox";
    init = Estimation.init;
    tx_prob = Estimation.tx_prob;
    step =
      (fun s channel ->
        match Estimation.step ~threshold s channel with
        | Estimation.Running s -> Aggregate.Continue s
        | Returned _ | Singled -> Elected (* stop the engine; the replay tells which *));
    compare = Stdlib.compare;
  }

let run ?(threshold = 2) ~n ~rng ~adversary ~budget ~max_slots () =
  let protocol = estimator ~threshold () in
  (* Replay Function 2 from the slot records to learn how it ended. *)
  let last = ref (Estimation.Running Estimation.init) in
  let replay (r : Jamming_sim.Metrics.slot_record) =
    match !last with
    | Estimation.Running s -> last := Estimation.step ~threshold s r.state
    | Returned _ | Singled -> ()
  in
  let result =
    Jamming_sim.Uniform_engine.run
      ~observers:[ Jamming_sim.Observer.of_on_slot replay ]
      ~n ~rng ~protocol ~adversary ~budget ~max_slots ()
  in
  let slots = result.Jamming_sim.Metrics.slots in
  match !last with
  | Singled -> Leader_elected { slots }
  | Returned round -> Estimate { round; n_hat = Float.exp2 (Float.exp2 (float_of_int round)); slots }
  | Running _ -> Exhausted { slots }

let within_lemma_2_8_band ~round ~n ~window =
  let loglog_n = Float.log2 (Float.max 1.0 (Float.log2 (float_of_int (Int.max 2 n)))) in
  let log_t = Float.log2 (float_of_int (Int.max 1 window)) in
  let r = float_of_int round in
  r >= loglog_n -. 1.0 && r <= Float.max loglog_n log_t +. 1.0

type refined =
  | Refined of {
      n_hat : float;
      clear_fraction : float;
      probes : int;
      slots : int;
      leader_elected : bool;
    }
  | Refine_failed of { slots : int }

let pp_refined ppf = function
  | Refined { n_hat; clear_fraction; probes; slots; leader_elected } ->
      Format.fprintf ppf
        "refined estimate n-hat = %.0f (clear fraction %.2f, %d probes, %d slots%s)" n_hat
        clear_fraction probes slots
        (if leader_elected then ", leader elected en route" else "")
  | Refine_failed { slots } -> Format.fprintf ppf "refinement failed within %d slots" slots

type probe = {
  j : int;  (* current probability level, q_j = 2^-j *)
  slot_in_probe : int;
  nulls : int;  (* in the current probe *)
  freqs : (int * float) list;  (* (j, f_j), newest first *)
  confirmations : int;
  finished : bool;
  elected : bool;  (* a Single was seen on the way *)
}

(* After the first sign of a plateau, take a few confirmation probes:
   stopping on the first flat pair underestimates the ceiling c and
   biases the inversion low. *)
let plateau = function
  | (_, f1) :: (_, f0) :: _ -> f1 >= 0.8 *. f0 && f1 >= 0.05
  | _ -> false

(* A Single is a by-product (a leader!), not a stop signal: the size
   probe keeps sweeping toward the Null plateau. *)
let probe_step ~slots_per_probe pr channel =
  let elected = pr.elected || Channel.equal_state channel Channel.Single in
  let nulls = if Channel.equal_state channel Channel.Null then pr.nulls + 1 else pr.nulls in
  let slot_in_probe = pr.slot_in_probe + 1 in
  if slot_in_probe < slots_per_probe then { pr with slot_in_probe; nulls; elected }
  else
    let freqs = (pr.j, float_of_int nulls /. float_of_int slots_per_probe) :: pr.freqs in
    let confirmations = if plateau freqs then pr.confirmations + 1 else pr.confirmations in
    let finished = confirmations > 3 || pr.j >= 60 in
    {
      j = (if finished then pr.j else pr.j + 1);
      slot_in_probe = 0;
      nulls = 0;
      freqs;
      confirmations;
      finished;
      elected;
    }

let probe_init =
  {
    j = 1;
    slot_in_probe = 0;
    nulls = 0;
    freqs = [];
    confirmations = 0;
    finished = false;
    elected = false;
  }

let prober ?(slots_per_probe = 128) () =
  if slots_per_probe < 8 then invalid_arg "Size_approx.refine: slots_per_probe must be >= 8";
  {
    Aggregate.name = "SizeApprox.refine";
    init = probe_init;
    tx_prob = (fun pr -> Float.exp2 (-.float_of_int pr.j));
    step =
      (fun pr channel ->
        let pr = probe_step ~slots_per_probe pr channel in
        if pr.finished then Aggregate.Elected (* stop the engine *) else Continue pr);
    compare = Stdlib.compare;
  }

let refine ?(slots_per_probe = 128) ~n ~rng ~adversary ~budget ~max_slots () =
  let protocol = prober ~slots_per_probe () in
  (* Replay the probe from the slot records to read its final tallies. *)
  let last = ref probe_init in
  let replay (r : Jamming_sim.Metrics.slot_record) =
    last := probe_step ~slots_per_probe !last r.state
  in
  let result =
    Jamming_sim.Uniform_engine.run
      ~observers:[ Jamming_sim.Observer.of_on_slot replay ]
      ~n ~rng ~protocol ~adversary ~budget ~max_slots ()
  in
  let slots = result.Jamming_sim.Metrics.slots in
  let { freqs; elected; _ } = !last in
  (match freqs with
    | [] -> Refine_failed { slots }
    | all_freqs ->
        let c = List.fold_left (fun acc (_, f) -> Float.max acc f) 0.0 all_freqs in
        if c < 0.05 then Refine_failed { slots }
        else
        (* Pick the probe whose frequency is closest to c/2 in log space
           (best conditioning for the inversion). *)
        let usable = List.filter (fun (_, f) -> f > 0.0 && f < 0.9 *. c) freqs in
        (match usable with
        | [] -> Refine_failed { slots }
        | _ ->
            let best_j, best_f =
              List.fold_left
                (fun ((_, bf) as best) ((_, f) as cand) ->
                  let score g = Float.abs (log (Float.max g 1e-9 /. c) -. log 0.5) in
                  if score f < score bf then cand else best)
                (List.hd usable) usable
            in
            let n_hat =
              Float.exp2 (float_of_int best_j)
              *. log (c /. Float.max best_f (0.5 /. float_of_int slots_per_probe))
            in
            Refined
              {
                n_hat;
                clear_fraction = c;
                probes = List.length freqs;
                slots;
                leader_elected = elected;
              }))
