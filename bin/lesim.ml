(* lesim — run a single jamming-resistant leader election from the
   command line.

     dune exec bin/lesim.exe -- --protocol lesk --n 4096 --eps 0.5 \
       --adversary greedy --window 64 --verbose
*)

module E = Jamming_experiments
module Metrics = Jamming_sim.Metrics
module Dynamic = Jamming_sim.Dynamic
module Churn = Jamming_faults.Churn
module Atomic_io = Jamming_store.Atomic_io

let protocols ~eps =
  [
    ("lesk", E.Specs.lesk ~eps);
    ("lesu", E.Specs.lesu ());
    ("estimation", E.Specs.estimation);
    ("arss", E.Specs.arss);
    ("willard", E.Specs.willard);
    ("sawtooth", E.Specs.sawtooth);
    ("geometric", E.Specs.geometric_sweep);
    ("backoff", E.Specs.backoff);
    ("known-n", E.Specs.known_n);
  ]

(* "pattern:JJ.." selects the oblivious schedule adversary. *)
let pattern_adversary spec =
  {
    E.Specs.a_name = "pattern:" ^ spec;
    a_make = (fun ~seed:_ ~n:_ ~eps:_ ~window:_ -> Jamming_adversary.Adversary.pattern spec);
  }

let adversaries ~eps =
  [
    ("none", E.Specs.no_jamming);
    ("greedy", E.Specs.greedy);
    ("random", E.Specs.random_jam ~p:0.5);
    ("front-loaded", E.Specs.front_loaded);
    ("periodic", E.Specs.periodic);
    ("silence-breaker", E.Specs.silence_breaker);
    ("streak-saver", E.Specs.streak_saver);
    ("single-suppressor", E.Specs.single_suppressor ~eps_protocol:eps);
    ("estimate-twister", E.Specs.estimate_twister ~eps_protocol:eps);
    ("estimation-staller", E.Specs.estimation_staller);
  ]

(* --churn grammar:
     none
     kill:GRACE:KILLS                        adaptive leader killer
     rate:EVERY:P_JOIN:P_LEAVE:BURST:HORIZON rate- and burst-bounded churn
     events:2+3,50-leader,80-member          explicit oblivious schedule
   (event syntax matches Churn.event_to_string: AT+K joins K stations,
   AT-leader / AT-member crash one). *)
let parse_churn spec =
  let num what conv s =
    match conv s with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "--churn: %s %S is not a number" what s)
  in
  let int_ what s = num what int_of_string_opt s in
  let float_ what s = num what float_of_string_opt s in
  let ( let* ) = Result.bind in
  let parse_event s =
    match String.index_opt s '+' with
    | Some i ->
        let* at = int_ "slot" (String.sub s 0 i) in
        let* k = int_ "join count" (String.sub s (i + 1) (String.length s - i - 1)) in
        Ok { Churn.at; kind = Churn.Join k }
    | None -> (
        match String.index_opt s '-' with
        | Some i -> (
            let* at = int_ "slot" (String.sub s 0 i) in
            match String.sub s (i + 1) (String.length s - i - 1) with
            | "leader" -> Ok { Churn.at; kind = Churn.Leave Churn.Leader }
            | "member" -> Ok { Churn.at; kind = Churn.Leave Churn.Member }
            | v -> Error (Printf.sprintf "--churn: unknown victim %S (leader|member)" v))
        | None -> Error (Printf.sprintf "--churn: malformed event %S" s))
  in
  match String.split_on_char ':' spec with
  | [ "none" ] -> Ok Churn.none
  | [ "kill"; g; k ] ->
      let* grace = int_ "grace" g in
      let* max_kills = int_ "kill count" k in
      Ok (Churn.Leader_killer { grace; max_kills })
  | [ "rate"; e; pj; pl; b; h ] ->
      let* every = int_ "period" e in
      let* p_join = float_ "join rate" pj in
      let* p_leave = float_ "leave rate" pl in
      let* max_burst = int_ "burst" b in
      let* horizon = int_ "horizon" h in
      Ok (Churn.Rate { every; p_join; p_leave; max_burst; horizon })
  | "events" :: rest ->
      let evs = String.split_on_char ',' (String.concat ":" rest) in
      let* events =
        List.fold_left
          (fun acc s ->
            let* acc = acc in
            let* e = parse_event (String.trim s) in
            Ok (e :: acc))
          (Ok []) evs
        |> Result.map List.rev
      in
      Ok (Churn.Oblivious events)
  | _ ->
      Error
        (Printf.sprintf
           "--churn: unknown spec %S (none | kill:G:K | rate:E:PJ:PL:B:H | events:...)" spec)

let run_churned ~engine ~churn ~restart_after ~setup ~seed ~reps ~verbose ~json_out
    adversary =
  let sample =
    E.Runner.replicate_churn ~base_seed:seed ~engine ~churn ?restart_after ~reps setup
      adversary
  in
  if verbose then
    Array.iteri
      (fun i r -> Format.printf "run %2d: %a@." i Dynamic.pp_result r)
      sample.E.Runner.c_results;
  Format.printf
    "@[<v>churn: %s@ elections completed (mean): %.2f@ leaderless slots (mean): %.1f@ \
     max leaderless interval: %d@ healed: %s@]@."
    sample.E.Runner.c_churn
    (E.Runner.mean_elections_completed sample)
    (E.Runner.mean_leaderless_slots sample)
    (E.Runner.max_leaderless_interval sample)
    (E.Table.fmt_pct (E.Runner.healed_rate sample));
  match json_out with
  | None -> ()
  | Some path ->
      Atomic_io.write_json ~path (E.Runner.churn_sample_to_json ~include_results:true sample);
      Format.printf "JSON written: %s@." path

let run protocol_name adversary_name n eps window max_slots seed reps jobs engine_name
    weak_cd energy verbose trace churn_spec restart_after json_out cache_opts =
  let (_ : int) = Cli.install_jobs jobs in
  let fail fmt = Format.kasprintf (fun s -> `Error (false, s)) fmt in
  let adversary_lookup name =
    match String.index_opt name ':' with
    | Some i when String.sub name 0 i = "pattern" ->
        Some (pattern_adversary (String.sub name (i + 1) (String.length name - i - 1)))
    | _ -> List.assoc_opt name (adversaries ~eps)
  in
  match List.assoc_opt protocol_name (protocols ~eps), adversary_lookup adversary_name with
  | None, _ -> fail "unknown protocol %S (try: %s)" protocol_name
                 (String.concat ", " (List.map fst (protocols ~eps)))
  | _, None -> fail "unknown adversary %S (try: %s)" adversary_name
                 (String.concat ", " (List.map fst (adversaries ~eps)))
  | Some protocol, Some adversary ->
      let setup = { E.Runner.n; eps; window; max_slots } in
      let shown_protocol =
        if engine_name = "lmr" then Jamming_core.Lmr.name else protocol.E.Specs.p_name
      in
      Format.printf "protocol %s vs adversary %s, %a, %d rep(s)@." shown_protocol
        adversary.E.Specs.a_name E.Runner.pp_setup setup reps;
      (* --engine: which simulation core executes the slots.
           auto      — uniform (trichotomy sampling), or the flat-pool
                       notification engine when --weak-cd is given
                       (its per-station form, as exact below, when
                       --churn or --restart-after is also given);
           uniform   — force the trichotomy-sampling engine;
           exact     — force the per-station O(n)/slot engine (behind
                       --weak-cd: Notification's one-station form of
                       the pool's machine, the path faults and churn
                       take — bit-identical to auto's pool, slower);
           aggregate — the class-population counting engine: O(#classes)
                       per slot, so n = 10^9 is fine on one core;
           lmr       — swap the protocol itself for the known-n
                       log-logarithmic awake-time election (LMR); pairs
                       naturally with --energy. *)
      let weak_name = protocol.E.Specs.p_name ^ "+Notification" in
      let weak_engine () =
        let pool =
          if protocol_name = "lesk" then Jamming_core.Lewk.pool ~eps ()
          else Jamming_core.Lewu.pool ()
        in
        E.Runner.Pooled { name = weak_name; cd = Jamming_channel.Channel.Weak_cd; pool }
      in
      let weak_station_engine () =
        let factory =
          if protocol_name = "lesk" then Jamming_core.Lewk.station ~eps ()
          else Jamming_core.Lewu.station ()
        in
        E.Runner.Exact
          { name = weak_name; cd = Jamming_channel.Channel.Weak_cd; factory }
      in
      let parsed_churn = parse_churn churn_spec in
      let churned =
        match parsed_churn with
        | Ok churn -> (not (Churn.is_null churn)) || restart_after <> None
        | Error _ -> false
      in
      let choose_engine () =
        match engine_name with
        | "auto" ->
            Ok
              (if not weak_cd then E.Runner.Uniform protocol
               else if churned then weak_station_engine ()
               else weak_engine ())
        | "uniform" ->
            if weak_cd then
              Error
                "--engine uniform conflicts with --weak-cd (Notification runs on the pooled \
                 or exact engine)"
            else Ok (E.Runner.Uniform protocol)
        | "exact" -> (
            if weak_cd then Ok (weak_station_engine ())
            else
              match protocol_name with
              | "lesk" ->
                  Ok
                    (E.Runner.Exact
                       {
                         name = "LESK-exact";
                         cd = Jamming_channel.Channel.Strong_cd;
                         factory = Jamming_core.Lesk.station ~eps;
                       })
              | "lesu" ->
                  Ok
                    (E.Runner.Exact
                       {
                         name = "LESU-exact";
                         cd = Jamming_channel.Channel.Strong_cd;
                         factory = Jamming_core.Lesu.station ();
                       })
              | _ -> Error "--engine exact supports lesk and lesu only")
        | "aggregate" ->
            if weak_cd then Error "--engine aggregate is strong-CD only (drop --weak-cd)"
            else (
              match protocol_name with
              | "lesk" -> Ok (E.Runner.aggregate_lesk ~eps ())
              | "lesu" -> Ok (E.Runner.aggregate_lesu ())
              | _ -> Error "--engine aggregate supports lesk and lesu only")
        | "lmr" ->
            if weak_cd then Error "--engine lmr is strong-CD only (drop --weak-cd)"
            else Ok (E.Runner.pooled_lmr ())
        | other ->
            Error
              (Printf.sprintf
                 "unknown engine %S (try: auto, uniform, exact, aggregate, lmr)" other)
      in
      if weak_cd && protocol_name <> "lesk" && protocol_name <> "lesu" then
        fail "--weak-cd supports lesk (as LEWK) and lesu (as LEWU) only"
      else begin
        match parsed_churn, choose_engine () with
        | Error e, _ | _, Error e -> fail "%s" e
        | Ok churn, Ok engine when churned -> (
            (* Dynamic population: chained self-healing elections. *)
            if engine_name = "aggregate" then
              fail
                "the aggregate engine does not support --churn/--restart-after \
                 (population counts lose station identity)"
            else if engine_name = "lmr" then
              fail
                "--engine lmr does not support --churn/--restart-after (LMR stations \
                 synchronize on a shared cycle clock)"
            else if energy then
              fail "--energy does not support --churn/--restart-after (awake slots \
                    cannot be attributed across incarnations)"
            else
            let store = Cli.store_of cache_opts in
            E.Runner.set_store store;
            match
              run_churned ~engine ~churn ~restart_after ~setup ~seed ~reps ~verbose
                ~json_out adversary
            with
            | () ->
                (match store with Some st -> Cli.report_store_stats st | None -> ());
                `Ok ()
            | exception Invalid_argument msg -> fail "%s" msg
            | exception Jamming_sim.Monitor.Violation v ->
                fail "monitor violation: %s" (Jamming_sim.Monitor.violation_to_string v))
        | Ok _, Ok engine ->
        let store = Cli.store_of cache_opts in
        E.Runner.set_store store;
        let sample =
          E.Runner.replicate ~base_seed:seed ~energy ~engine ~reps setup adversary
        in
        if verbose then
          Array.iteri
            (fun i r -> Format.printf "run %2d: %a@." i Metrics.pp_result r)
            sample.E.Runner.results;
        let slots = Array.map (fun r -> float_of_int r.Metrics.slots) sample.E.Runner.results in
        let s = Jamming_stats.Descriptive.summarize slots in
        Format.printf "@[<v>slots: %a@ success rate: %s@ jammed fraction (median): %.2f@]@."
          Jamming_stats.Descriptive.pp_summary s
          (E.Table.fmt_pct (E.Runner.success_rate sample))
          (E.Runner.median_jammed_fraction sample);
        if energy then
          Format.printf "median awake slots: %.1f@."
            (E.Runner.median_awake_slots sample);
        (match json_out with
        | None -> ()
        | Some path ->
            Atomic_io.write_json ~path
              (E.Runner.sample_to_json ~include_results:true sample);
            Format.printf "JSON written: %s@." path);
        (match store with Some st -> Cli.report_store_stats st | None -> ());
        if trace > 0 then begin
          (* One extra, separately seeded run with a slot trace attached
             as an observer. *)
          let t = Jamming_sim.Trace.create ~capacity:trace in
          let r =
            E.Runner.run ~observers:[ Jamming_sim.Trace.observer t ] ~engine setup
              adversary ~seed
          in
          Format.printf "@.--- last %d slots of a traced run (%d slots total) ---@.%a"
            (Int.min trace r.Metrics.slots)
            r.Metrics.slots Jamming_sim.Trace.pp t
        end;
        `Ok ()
      end

open Cmdliner

let cmd =
  let protocol =
    Arg.(value & opt string "lesk" & info [ "protocol"; "p" ] ~doc:"Protocol to run.")
  in
  let adversary =
    Arg.(value & opt string "greedy" & info [ "adversary"; "a" ] ~doc:"Jamming strategy.")
  in
  (* Accepts plain ints and scientific notation ("1e8", "2.5e6") so
     population-scale runs don't need nine zeros typed out. *)
  let population_conv =
    let parse s =
      match int_of_string_opt s with
      | Some v -> Ok v
      | None -> (
          match float_of_string_opt s with
          | Some f
            when Float.is_finite f && f >= 1.0 && f <= 1e18
                 && Float.equal (Float.round f) f ->
              Ok (int_of_float f)
          | Some _ | None ->
              Error (`Msg (Printf.sprintf "invalid station count %S (try 4096 or 1e8)" s)))
    in
    Arg.conv (parse, Format.pp_print_int)
  in
  let n =
    Arg.(
      value
      & opt population_conv 1024
      & info [ "n"; "stations" ] ~docv:"N"
          ~doc:"Number of stations; scientific notation is accepted (e.g. $(b,1e8)).")
  in
  let eps =
    Arg.(value & opt float 0.5 & info [ "eps" ] ~doc:"Adversary tolerance (0 < eps <= 1).")
  in
  let window = Arg.(value & opt int 64 & info [ "window"; "T" ] ~doc:"Adversary window T.") in
  let max_slots = Arg.(value & opt int 1_000_000 & info [ "max-slots" ] ~doc:"Slot cap.") in
  let reps = Arg.(value & opt int 1 & info [ "reps" ] ~doc:"Number of replications.") in
  let engine =
    Arg.(
      value
      & opt string "auto"
      & info [ "engine" ] ~docv:"ENGINE"
          ~doc:
            "Simulation engine: $(b,auto) (uniform; behind --weak-cd the pooled \
             Notification engine, or its bit-identical per-station form under \
             --churn or --restart-after), \
             $(b,uniform), $(b,exact), $(b,aggregate) — the class-population \
             counting engine (lesk/lesu, strong-CD) that scales to n = 1e9 — or \
             $(b,lmr), which swaps in the known-n LMR election with \
             log-logarithmic awake time (strong-CD; pairs with $(b,--energy)).")
  in
  let weak_cd =
    Arg.(
      value & flag
      & info [ "weak-cd" ]
          ~doc:"Run in weak-CD via Notification (pooled engine unless --engine says otherwise).")
  in
  let verbose = Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Print every run.") in
  let trace =
    Arg.(
      value & opt int 0
      & info [ "trace" ] ~doc:"Also run one traced election and print its last $(docv) slots."
          ~docv:"SLOTS")
  in
  let churn =
    Arg.(
      value & opt string "none"
      & info [ "churn" ] ~docv:"SPEC"
          ~doc:
            "Run chained self-healing elections over a churning population.  $(docv) is \
             $(b,none), $(b,kill:GRACE:KILLS) (crash each elected leader GRACE slots \
             after it wins, KILLS times), $(b,rate:EVERY:P_JOIN:P_LEAVE:BURST:HORIZON) \
             (seeded rate churn), or $(b,events:2+3,50-leader,...) (explicit \
             schedule).")
  in
  let restart_after =
    Arg.(
      value & opt (some int) None
      & info [ "restart-after" ] ~docv:"SLOTS"
          ~doc:
            "Abandon an election attempt that has not completed after $(docv) slots and \
             re-elect with fresh incarnations (implies the dynamic driver).")
  in
  let json_out =
    Cli.json_out ~doc:"Write the sample (setup, per-run results, digests) as JSON to $(docv)."
  in
  let term =
    Term.(
      ret
        (const run $ protocol $ adversary $ n $ eps $ window $ max_slots $ Cli.seed ()
       $ reps $ Cli.jobs $ engine $ weak_cd $ Cli.energy $ verbose $ trace $ churn
       $ restart_after $ json_out $ Cli.cache_opts))
  in
  Cmd.v
    (Cmd.info "lesim" ~doc:"Simulate jamming-resistant leader election (Klonowski-Pajak 2015)")
    term

let () = exit (Cmd.eval cmd)
