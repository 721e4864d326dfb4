(* The energy subsystem's contracts (DESIGN.md §16), QCheck-asserted:

   - conservation: awake = tx + listen and awake + sleep = horizon for
     every station, on every engine path (uniform / exact / pooled /
     aggregate / faulty);
   - recount: the meter's summary equals an independent station-side
     recount of awake and tx slots, per station (max, median, bins);
   - non-interference: a metered run, energy block stripped, is
     bit-identical to the unmetered run on every engine;
   - jobs-invariance: energy blocks survive the domain pool unchanged
     at jobs in {1, 2, 7};
   - codecs: summaries round-trip JSON losslessly, standalone and
     embedded in a result. *)

open Test_util
module Energy = Jamming_energy.Energy
module E = Jamming_experiments
module Json = Jamming_telemetry.Json

(* --- an erratic sleeper protocol with a station-side recount --- *)

(* Each awake slot: sleep a random stretch with p = 1/4, else transmit
   or listen at random; finish after a per-station number of awake
   slots.  [awake]/[tx] recount, from the station side, exactly what
   the meter should attribute: a [Sleep] decision's own slot is asleep,
   every other decide call is one awake slot. *)
let sleeper_factory ~awake ~tx : Station.factory =
 fun ~id ~rng ->
  let life = 4 + (id mod 7) in
  let lived = ref 0 in
  let fin = ref false in
  {
    Station.id;
    decide =
      (fun ~slot ->
        let r = Prng.float rng in
        if r < 0.25 then Station.Sleep (slot + 1 + Prng.int rng ~bound:9)
        else begin
          awake.(id) <- awake.(id) + 1;
          incr lived;
          if r < 0.5 then begin
            tx.(id) <- tx.(id) + 1;
            Station.Transmit
          end
          else Station.Listen
        end);
    observe = (fun ~slot:_ ~perceived:_ ~transmitted:_ -> if !lived >= life then fin := true);
    status = (fun () -> Station.Non_leader);
    finished = (fun () -> !fin);
  }

let adversaries =
  [| Adversary.none; Adversary.greedy; Adversary.random ~seed:5 ~p:0.5 |]

let run_sleepers ~seed ~n ~adv =
  let awake = Array.make n 0 and tx = Array.make n 0 in
  let meter = Energy.Meter.create ~n in
  let rng = Prng.create ~seed in
  let stations = Engine.make_stations ~n ~rng (sleeper_factory ~awake ~tx) in
  let budget = Budget.create ~window:16 ~eps:0.5 in
  let r =
    Engine.run ~meter ~cd:Channel.Strong_cd ~adversary:(adversaries.(adv) ())
      ~budget ~max_slots:5_000 ~stations ()
  in
  (r, awake, tx)

let summary_of r =
  match r.Metrics.energy with
  | Some s -> s
  | None -> Alcotest.fail "metered run has no energy block"

(* The meter agrees, station for station, with the protocol's own count:
   totals, extrema, median and histogram all match a recount. *)
let test_recount =
  qtest ~count:150 "meter = station-side recount"
    QCheck.(triple small_nat (int_range 1 40) (int_range 0 2))
    (fun (seed, n, adv) ->
      let r, awake, tx = run_sleepers ~seed:(seed + 1) ~n ~adv in
      let s = summary_of r in
      let expected =
        Energy.of_per_station ~n ~slots:r.Metrics.slots
          ~tx:(fun i -> tx.(i))
          ~awake:(fun i -> awake.(i))
      in
      Energy.equal_summary s expected)

(* Conservation laws on the recount path, plus internal consistency of
   the derived fields. *)
let laws_hold (s : Energy.summary) =
  let n = float_of_int s.Energy.stations
  and slots = float_of_int s.Energy.slots in
  s.Energy.listen_total = s.Energy.awake_total -. s.Energy.tx_total
  && s.Energy.sleep_total = (n *. slots) -. s.Energy.awake_total
  && s.Energy.tx_total >= 0.0
  && s.Energy.tx_total <= s.Energy.awake_total
  && s.Energy.awake_total <= n *. slots
  && s.Energy.max_awake <= s.Energy.slots
  && s.Energy.median_awake >= 0.0
  && s.Energy.median_awake <= float_of_int s.Energy.max_awake
  && List.fold_left (fun acc (_, c) -> acc + c) 0 s.Energy.awake_bins
     = s.Energy.stations
  && List.for_all (fun (b, _) -> b >= 0 && b < Energy.hist_bins) s.Energy.awake_bins

let test_conservation_sleepers =
  qtest ~count:150 "conservation laws (exact engine, sleepers)"
    QCheck.(triple small_nat (int_range 1 40) (int_range 0 2))
    (fun (seed, n, adv) ->
      let r, awake, tx = run_sleepers ~seed:(seed + 1) ~n ~adv in
      let s = summary_of r in
      laws_hold s
      && s.Energy.slots = r.Metrics.slots
      && s.Energy.stations = n
      (* awake = tx + listen, station by station, via the recount. *)
      && Array.for_all2 (fun a t -> t <= a && a <= r.Metrics.slots) awake tx)

(* --- every Runner engine path: conservation + non-interference --- *)

let small_faults =
  {
    Jamming_faults.Config.perception = Jamming_faults.Perception.uniform ~p:0.05;
    p_crash = 0.02;
    crash_horizon = 1_000;
    p_sleep = 0.0;
    sleep_horizon = 1;
    max_sleep = 1;
    p_late_wake = 0.0;
    max_wake_delay = 1;
  }

let engines ~n =
  [
    ("uniform", E.Runner.Uniform (E.Specs.lesk ~eps:0.5));
    ( "exact",
      E.Runner.Exact
        {
          name = "LESK-exact";
          cd = Channel.Strong_cd;
          factory = Jamming_core.Lesk.station ~eps:0.5;
        } );
    ( "faulty",
      E.Runner.Faulty
        {
          name = "LESK-faulty";
          cd = Channel.Strong_cd;
          factory = Jamming_core.Lesk.station ~eps:0.5;
          faults = small_faults;
          monitor_checks = None;
        } );
    ("exact-lmr", E.Runner.exact_lmr ~n);
    ("pooled-lmr", E.Runner.pooled_lmr ());
    ("aggregate", E.Runner.aggregate_lesk ~eps:0.5 ());
  ]

let specs_adversaries =
  [| E.Specs.no_jamming; E.Specs.greedy; E.Specs.random_jam ~p:0.5 |]

let result_testable = Alcotest.testable Metrics.pp_result Metrics.equal_result

(* Metering must never perturb a run: strip the energy block and the
   metered result is the unmetered result, on every engine path. *)
let test_engines_conserve_and_do_not_perturb =
  qtest ~count:40 "all engines: conservation + metering non-interference"
    QCheck.(triple small_nat (int_range 2 32) (int_range 0 2))
    (fun (seed, n, adv) ->
      let setup = { E.Runner.n; eps = 0.5; window = 16; max_slots = 100_000 } in
      let adversary = specs_adversaries.(adv) in
      List.for_all
        (fun (what, engine) ->
          let metered = E.Runner.run ~energy:true ~engine setup adversary ~seed in
          let plain = E.Runner.run ~engine setup adversary ~seed in
          let s = summary_of metered in
          if plain.Metrics.energy <> None then
            QCheck.Test.fail_reportf "%s: unmetered run grew an energy block" what;
          if not (laws_hold s) then
            QCheck.Test.fail_reportf "%s: conservation laws violated" what;
          if s.Energy.stations <> n || s.Energy.slots <> metered.Metrics.slots then
            QCheck.Test.fail_reportf "%s: summary shape mismatch" what;
          if not (Metrics.equal_result { metered with Metrics.energy = None } plain)
          then QCheck.Test.fail_reportf "%s: metering perturbed the run" what;
          true)
        (engines ~n))

(* LESK never sleeps, so its accounting must say so exactly: every
   station awake for the whole run on the identity-preserving engines. *)
let test_always_on_protocols_never_sleep () =
  let setup = { E.Runner.n = 24; eps = 0.5; window = 16; max_slots = 100_000 } in
  List.iter
    (fun (what, engine) ->
      let r = E.Runner.run ~energy:true ~engine setup E.Specs.greedy ~seed:3 in
      let s = summary_of r in
      check_float (what ^ ": sleep_total") 0.0 s.Energy.sleep_total;
      check_int (what ^ ": max_awake") r.Metrics.slots s.Energy.max_awake)
    [
      ("uniform", E.Runner.Uniform (E.Specs.lesk ~eps:0.5));
      ( "exact",
        E.Runner.Exact
          {
            name = "LESK-exact";
            cd = Channel.Strong_cd;
            factory = Jamming_core.Lesk.station ~eps:0.5;
          } );
    ]

(* Metered LMR at population scale under the greedy jammer: every rep
   elects and carries its energy block. *)
let test_metered_lmr_at_scale () =
  let setup = { E.Runner.n = 100_000; eps = 0.5; window = 64; max_slots = 2_000_000 } in
  let sample =
    E.Runner.replicate ~energy:true ~engine:(E.Runner.pooled_lmr ()) ~reps:2 setup
      E.Specs.greedy
  in
  check_float "every rep elects" 1.0 (E.Runner.success_rate sample);
  check_true "every rep carries an energy block"
    (Array.for_all (fun r -> r.Metrics.energy <> None) sample.E.Runner.results)

(* --- jobs-invariance of the energy block --- *)

let energy_cells =
  let setup = { E.Runner.n = 20; eps = 0.5; window = 16; max_slots = 50_000 } in
  List.concat_map
    (fun (_, engine) ->
      [
        E.Runner.Cell.v ~base_seed:7 ~energy:true ~engine ~reps:9 setup E.Specs.greedy;
        E.Runner.Cell.v ~base_seed:11 ~energy:true ~engine ~reps:2 setup
          E.Specs.no_jamming;
      ])
    (engines ~n:20)

let sample_bytes outcomes =
  String.concat "\n"
    (List.map
       (function
         | E.Runner.Sample s ->
             Json.to_string (E.Runner.sample_to_json ~include_results:true s)
         | E.Runner.Churned _ -> Alcotest.fail "unexpected churn outcome")
       outcomes)

let test_energy_jobs_invariance () =
  let run_at jobs =
    E.Runner.run_cells (E.Runner.Pool.create ~jobs ()) energy_cells
  in
  let at1 = run_at 1 in
  List.iter
    (function
      | E.Runner.Sample s ->
          Array.iter
            (fun r ->
              check_true "every rep carries an energy block"
                (r.Metrics.energy <> None))
            s.E.Runner.results
      | E.Runner.Churned _ -> Alcotest.fail "unexpected churn outcome")
    at1;
  let bytes1 = sample_bytes at1 in
  List.iter
    (fun jobs ->
      check_true
        (Printf.sprintf "energy cells byte-identical at jobs=%d" jobs)
        (String.equal bytes1 (sample_bytes (run_at jobs))))
    [ 2; 7 ]

(* --- codecs --- *)

let test_codec_roundtrip =
  qtest ~count:100 "summary and result JSON round-trip losslessly"
    QCheck.(triple small_nat (int_range 1 40) (int_range 0 2))
    (fun (seed, n, adv) ->
      let r, _, _ = run_sleepers ~seed:(seed + 1) ~n ~adv in
      let s = summary_of r in
      (match Energy.summary_of_json (Energy.summary_to_json s) with
      | Ok s' when Energy.equal_summary s s' -> ()
      | Ok _ -> QCheck.Test.fail_reportf "summary round-trip changed the summary"
      | Error e -> QCheck.Test.fail_reportf "summary round-trip failed: %s" e);
      (match Metrics.result_of_json (Metrics.result_to_json r) with
      | Ok r' when Metrics.equal_result r r' -> ()
      | Ok _ -> QCheck.Test.fail_reportf "result round-trip changed the result"
      | Error e -> QCheck.Test.fail_reportf "result round-trip failed: %s" e);
      true)

(* The store must round-trip metered samples: encode, decode, compare. *)
let test_store_roundtrips_energy () =
  let setup = { E.Runner.n = 16; eps = 0.5; window = 16; max_slots = 50_000 } in
  let sample =
    E.Runner.replicate ~base_seed:7 ~energy:true
      ~engine:(E.Runner.pooled_lmr ()) ~reps:4 setup E.Specs.greedy
  in
  match
    E.Runner.sample_of_json (E.Runner.sample_to_json ~include_results:true sample)
  with
  | Error e -> Alcotest.fail ("sample decode failed: " ^ e)
  | Ok decoded ->
      Alcotest.(check (array result_testable))
        "decoded results carry the same energy blocks" sample.E.Runner.results
        decoded.E.Runner.results

let suite =
  [
    test_recount;
    test_conservation_sleepers;
    test_engines_conserve_and_do_not_perturb;
    Alcotest.test_case "always-on protocols never sleep" `Quick
      test_always_on_protocols_never_sleep;
    Alcotest.test_case "metered LMR elects at n=10^5 under greedy" `Quick
      test_metered_lmr_at_scale;
    Alcotest.test_case "energy blocks are jobs-invariant" `Quick
      test_energy_jobs_invariance;
    test_codec_roundtrip;
    Alcotest.test_case "store round-trips metered samples" `Quick
      test_store_roundtrips_energy;
  ]
