module Uniform = Jamming_station.Uniform

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

let run ?(threshold = 2) ~n ~rng ~adversary ~budget ~max_slots () =
  if threshold < 1 then invalid_arg "Size_approx.run: threshold must be >= 1";
  let state = ref (Estimation.Running Estimation.init) in
  let protocol =
    {
      Uniform.name = "SizeApprox";
      tx_prob =
        (fun () ->
          match !state with
          | Estimation.Running s -> Estimation.tx_prob s
          | Returned _ | Singled -> 0.0);
      on_state =
        (fun channel ->
          (match !state with
          | Estimation.Running s -> state := Estimation.step ~threshold s channel
          | Returned _ | Singled -> ());
          match !state with
          | Running _ -> Uniform.Continue
          | Returned _ | Singled -> Uniform.Elected (* stop the engine; we disambiguate below *));
    }
  in
  let result =
    Jamming_sim.Uniform_engine.run ~n ~rng ~protocol ~adversary ~budget ~max_slots ()
  in
  let slots = result.Jamming_sim.Metrics.slots in
  match !state with
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

let refine ?(slots_per_probe = 128) ~n ~rng ~adversary ~budget ~max_slots () =
  if slots_per_probe < 8 then invalid_arg "Size_approx.refine: slots_per_probe must be >= 8";
  (* State of the probing protocol, advanced from channel feedback. *)
  let j = ref 1 in
  let slot_in_probe = ref 0 in
  let nulls = ref 0 in
  let freqs = ref [] (* (j, f_j), newest first *) in
  let finished = ref false in
  let elected = ref false in
  (* After the first sign of a plateau, take a few confirmation probes:
     stopping on the first flat pair underestimates the ceiling c and
     biases the inversion low. *)
  let confirmations = ref 0 in
  let plateau () =
    match !freqs with
    | (_, f1) :: (_, f0) :: _ -> f1 >= 0.8 *. f0 && f1 >= 0.05
    | _ -> false
  in
  let protocol =
    {
      Uniform.name = "SizeApprox.refine";
      tx_prob =
        (fun () -> if !finished then 0.0 else Float.exp2 (-.float_of_int !j));
      on_state =
        (fun state ->
          (* A Single is a by-product (a leader!), not a stop signal:
             the size probe keeps sweeping toward the Null plateau. *)
          (match state with
          | Jamming_channel.Channel.Single -> elected := true
          | Jamming_channel.Channel.Null -> incr nulls
          | Jamming_channel.Channel.Collision -> ());
          begin
            incr slot_in_probe;
            if !slot_in_probe >= slots_per_probe then begin
              freqs := (!j, float_of_int !nulls /. float_of_int slots_per_probe) :: !freqs;
              slot_in_probe := 0;
              nulls := 0;
              if plateau () then incr confirmations;
              if !confirmations > 3 || !j >= 60 then finished := true else incr j
            end;
            if !finished then Uniform.Elected (* stop the engine *) else Uniform.Continue
          end);
    }
  in
  let result =
    Jamming_sim.Uniform_engine.run ~n ~rng ~protocol ~adversary ~budget ~max_slots ()
  in
  let slots = result.Jamming_sim.Metrics.slots in
  (match !freqs with
    | [] -> Refine_failed { slots }
    | all_freqs ->
        let c = List.fold_left (fun acc (_, f) -> Float.max acc f) 0.0 all_freqs in
        if c < 0.05 then Refine_failed { slots }
        else
        (* Pick the probe whose frequency is closest to c/2 in log space
           (best conditioning for the inversion). *)
        let usable = List.filter (fun (_, f) -> f > 0.0 && f < 0.9 *. c) !freqs in
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
                probes = List.length !freqs;
                slots;
                leader_elected = !elected;
              }))
