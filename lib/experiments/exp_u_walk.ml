module Core = Jamming_core
module Prng = Jamming_prng.Prng
module Budget = Jamming_adversary.Budget

(* One election, returning the u value at every slot. *)
let u_trajectory ~n ~eps ~window ~adversary ~seed =
  let a = Core.Lesk.step_denominator ~where:"Exp_u_walk" ~eps () in
  let u = ref 0.0 and points = ref [] in
  let on_slot (r : Jamming_sim.Metrics.slot_record) =
    points := (float_of_int r.Jamming_sim.Metrics.slot, !u) :: !points;
    match Core.Lesk.step ~a !u r.Jamming_sim.Metrics.state with
    | Jamming_sim.Aggregate.Continue u' -> u := u'
    | Elected -> ()
  in
  let setup = { Runner.n; eps; window; max_slots = 100_000 } in
  let result =
    Runner.run
      ~observers:[ Jamming_sim.Observer.of_on_slot on_slot ]
      ~engine:(Runner.Uniform (Specs.lesk ~eps))
      setup adversary ~seed
  in
  (List.rev !points, result)

let run scale ppf_out =
  let ppf = Output.ppf ppf_out in
  let n = match scale with Registry.Quick -> 4096 | Registry.Full -> 65536 in
  let eps = 0.4 and window = 64 in
  let u0 = Float.log2 (float_of_int n) in
  let band_lo, band_hi = Core.Lemmas.regular_band ~eps in
  let series =
    List.filter_map
      (fun (label, adversary, seed) ->
        let points, result = u_trajectory ~n ~eps ~window ~adversary ~seed in
        if result.Jamming_sim.Metrics.elected then
          Some ({ Ascii_plot.label = Printf.sprintf "%s (elected at %d)" label result.Jamming_sim.Metrics.slots; points }, points)
        else None)
      [
        ("no jamming", Specs.no_jamming, 3);
        ("greedy", Specs.greedy, 4);
        ("single-suppressor", Specs.single_suppressor ~eps_protocol:eps, 5);
      ]
  in
  let plot_series = List.map fst series in
  let max_slot =
    List.fold_left
      (fun acc (_, pts) -> List.fold_left (fun m (x, _) -> Float.max m x) acc pts)
      1.0 series
  in
  let reference label y =
    { Ascii_plot.label; points = [ (0.0, y); (max_slot, y) ] }
  in
  Format.fprintf ppf
    "LESK's estimate u during single elections (n = %d, so log2 n = %.1f; eps = %.1f, T = \
     %d).  The regular band of Lemma 2.4 is [%.2f, %.2f] around log2 n.@.@." n u0 eps
    window (u0 +. band_lo) (u0 +. band_hi);
  Format.fprintf ppf "%s@."
    (Ascii_plot.render ~height:24 ~x_label:"slot" ~y_label:"u"
       (plot_series
       @ [ reference "log2 n + band top" (u0 +. band_hi);
           reference "log2 n - band bottom" (u0 +. band_lo) ]));
  (* Quantify time-in-band per adversary. *)
  let table =
    Table.create ~title:"F1: u relative to the regular band (per run)"
      ~columns:
        [
          ("adversary", Table.Left);
          ("slots", Table.Right);
          ("climb (slots to band)", Table.Right);
          ("in band after entry", Table.Right);
        ]
  in
  List.iter
    (fun ({ Ascii_plot.label; _ }, points) ->
      let in_band u = u >= u0 +. band_lo && u <= u0 +. band_hi in
      let total = List.length points in
      let entry =
        match List.find_index (fun (_, u) -> in_band u) points with
        | Some i -> i
        | None -> total
      in
      let after = List.filteri (fun i _ -> i >= entry) points in
      let stayed = List.length (List.filter (fun (_, u) -> in_band u) after) in
      Table.add_row table
        [
          label;
          Table.fmt_int total;
          Table.fmt_int entry;
          (if after = [] then "-"
           else Table.fmt_pct (float_of_int stayed /. float_of_int (List.length after)));
        ])
    series;
  Output.table ppf_out table;
  Format.fprintf ppf
    "The climb from u = 0 (at +eps/8 per Collision) takes ~a*log2(n) slots and dominates \
     the run; once u enters the regular band it never leaves it for long — every escape \
     upward is pulled back by un-fakeable Nulls worth a = 8/eps Collisions each — and \
     with P[Single] >= ln(a)/a^2 per band slot the election lands shortly after entry, \
     under every adversary alike.@."

let experiment =
  {
    Registry.id = "F1";
    name = "u-walk";
    claim =
      "Section 2.2: u performs a biased random walk that stays in a close proximity of \
       log2 n for a significant number of slots, independent of how the adversary acts.";
    run;
  }
