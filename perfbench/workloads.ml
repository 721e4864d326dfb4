(* The benchmark program: runs one workload in its own process and prints
   every metric by name with its unit, after checking that the outputs
   are correct.  See README.md for the workloads and metrics.

     workloads.exe --workload NAME [--seed S] [--seconds T] [--trace 0|1]
                   [--smoke] [--out DIR]
     workloads.exe --smoke-check BENCHMARK.json [--out DIR]

   The load is a closed loop: one batch of cells at a time goes to
   [Runner.run_cells] and the program waits for it.  After set-up, one
   untimed warm-up pass runs, then timed passes until [--seconds] have
   passed (at least three).  The last stdout line is one JSON object
   with the end-to-end metrics, or with the per-layer metrics of a
   separate traced pass under [--trace 1]. *)

module R = Jamming_experiments.Runner
module Specs = Jamming_experiments.Specs
module Store = Jamming_store.Store
module Atomic_io = Jamming_store.Atomic_io
module Json = Jamming_telemetry.Json
module Metrics = Jamming_sim.Metrics
module Dynamic = Jamming_sim.Dynamic
module Energy = Jamming_energy.Energy
module Prng = Jamming_prng.Prng
module Sample = Jamming_prng.Sample
module M = Measure

type opts = {
  workload : Cells.kind;
  seed : int;
  seconds : float;
  trace : bool;
  smoke : bool;
  out : string;
}

(* --- outcomes: what a pass produced --- *)

type tally = {
  runs : int;  (** elections attempted *)
  failed : int;  (** runs that ended without a (live) leader *)
  elections : int;  (** elections completed *)
  slots : int;  (** channel slots simulated *)
  station_slots : float;  (** sum of n x slots *)
}

let tally outcomes =
  let zero = { runs = 0; failed = 0; elections = 0; slots = 0; station_slots = 0.0 } in
  let add t ~n ~ok ~elections ~slots =
    {
      runs = t.runs + 1;
      failed = (t.failed + if ok then 0 else 1);
      elections = t.elections + elections;
      slots = t.slots + slots;
      station_slots = t.station_slots +. (float_of_int n *. float_of_int slots);
    }
  in
  List.fold_left
    (fun t -> function
      | R.Sample s ->
          Array.fold_left
            (fun t (r : Metrics.result) ->
              let ok = Metrics.election_ok r in
              add t ~n:s.R.setup.R.n ~ok ~elections:(Bool.to_int ok) ~slots:r.Metrics.slots)
            t s.R.results
      | R.Churned cs ->
          Array.fold_left
            (fun t (r : Dynamic.result) ->
              add t ~n:cs.R.c_setup.R.n
                ~ok:(r.Dynamic.final_leader <> None || r.Dynamic.final_population = 0)
                ~elections:r.Dynamic.elections_completed ~slots:r.Dynamic.simulated_slots)
            t cs.R.c_results)
    zero outcomes

(* MD5 over the per-cell MD5s, so no string larger than one cell's is
   ever built: the benchmark's own allocations stay out of the heap
   peak it reports. *)
let digest_by f outcomes =
  Digest.to_hex (Digest.string (String.concat "" (List.map (fun o -> Digest.string (f o)) outcomes)))

(* The outcome digest golden.json pins: per cell, the JSON of
   [sample_to_json]/[churn_sample_to_json ~include_results:true]. *)
let digest = digest_by (fun o -> Json.to_string (Tracer.outcome_json o))

(* --- set-up: everything a pass needs, built from the seed --- *)

let store_root o tag = Filename.concat o.out (Printf.sprintf "stores/%s-%d" tag (Unix.getpid ()))

type ready = {
  cells : R.Cell.t list;
  pool : R.Pool.t;
  warm : (Store.t * string) option;  (** sweep-warm's filled store and the fill's digest *)
}

let setup o =
  let cells = Cells.cells ~smoke:o.smoke ~seed:o.seed o.workload in
  let pool = R.Pool.create ~jobs:(Cells.jobs o.workload) () in
  (* Store handles hash the executable for their code fingerprint on
     first use; that is set-up work, not pass work. *)
  if Cells.uses_store o.workload then ignore (Jamming_store.Fingerprint.code ());
  let warm =
    match o.workload with
    | Cells.Sweep_warm ->
        let store = Store.create ~root:(store_root o "warm") () in
        Some (store, digest (R.run_cells ~store pool cells))
    | Cells.Sweep_cold | Cells.Pooled_weakcd | Cells.Lmr_sleep -> None
  in
  { cells; pool; warm }

let cleanup ready =
  match ready.warm with Some (st, _) -> Atomic_io.remove_tree (Store.root st) | None -> ()

let base_args o =
  [ "--workload"; Cells.name o.workload; "--seed"; string_of_int o.seed; "--out"; o.out ]
  @ if o.smoke then [ "--smoke" ] else []

(* Set-up time from process start: spawn this executable in probe mode
   and wait for the line it prints once set-up is done. *)
let probe_setup o =
  let r, w = Unix.pipe ~cloexec:true () in
  let args = Array.of_list ((Sys.executable_name :: "--setup-probe" :: base_args o)) in
  let t0 = M.now_ns () in
  let pid = Unix.create_process Sys.executable_name args Unix.stdin w Unix.stderr in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  let line = In_channel.input_line ic in
  let dt = M.seconds_since t0 in
  close_in ic;
  match (line, snd (Unix.waitpid [] pid)) with
  | Some "ready", Unix.WEXITED 0 -> dt
  | _ -> failwith "set-up probe failed"

let setup_probe_main o =
  let ready = setup o in
  print_endline "ready";
  cleanup ready

(* --- passes --- *)

(* Outcomes are reduced to digests and a tally as soon as a pass ends,
   so the heap does not grow with the number of passes.  [same], the MD5
   of the marshalled outcomes, is a cheap pass-to-pass identity check;
   the JSON [digest] that golden.json pins is computed on request. *)
type pass = {
  wall : float;
  same : string;
  digest : string option;
  tally : tally;
  minor_words : float;
  major : int;
}

let run_pass ?(json = false) o ready ~pool =
  let store, fresh =
    match (o.workload, ready.warm) with
    | Cells.Sweep_warm, Some (st, _) -> (Some st, false)
    | Cells.Sweep_cold, _ -> (Some (Store.create ~root:(store_root o "cold") ()), true)
    | _ -> (None, false)
  in
  (* Each pass starts from a compacted heap, as each run of a real
     sweep starts from a fresh process. *)
  Gc.compact ();
  let gc0 = Gc.quick_stat () in
  let t0 = M.now_ns () in
  let outcomes = R.run_cells ?store pool ready.cells in
  let wall = M.seconds_since t0 in
  let gc1 = Gc.quick_stat () in
  (match store with Some st when fresh -> Atomic_io.remove_tree (Store.root st) | _ -> ());
  {
    wall;
    same = digest_by (fun o -> Marshal.to_string o [ Marshal.No_sharing ]) outcomes;
    digest = (if json then Some (digest outcomes) else None);
    tally = tally outcomes;
    minor_words = gc1.Gc.minor_words -. gc0.Gc.minor_words;
    major = gc1.Gc.major_collections - gc0.Gc.major_collections;
  }

let timed_passes o f =
  let t0 = M.now_ns () in
  let rec loop acc k =
    if k >= 200 || (k >= 3 && M.seconds_since t0 >= o.seconds) then List.rev acc
    else loop (f () :: acc) (k + 1)
  in
  loop [] 0

(* --- checks --- *)

let checks : (string * bool) list ref = ref []
let check name ok = checks := (name, ok) :: !checks

(* Read from the checkout root, where run.py starts this program. *)
let golden_digest o =
  match Json.read_file ~path:"perfbench/golden.json" with
  | Error _ -> None
  | Ok j -> Option.bind (Json.member (Cells.name o.workload) j) Json.to_string_opt

(* --- header --- *)

let git_commit () =
  let read p =
    try Some (String.trim (In_channel.with_open_bin p In_channel.input_all))
    with Sys_error _ -> None
  in
  match read ".git/HEAD" with
  | None -> "unknown"
  | Some h when String.starts_with ~prefix:"ref: " h -> (
      let ref_ = String.sub h 5 (String.length h - 5) in
      match read (Filename.concat ".git" ref_) with
      | Some c -> c
      | None -> (
          let packed = Option.value (read ".git/packed-refs") ~default:"" in
          let hit =
            List.find_map
              (fun line ->
                match String.split_on_char ' ' line with
                | [ sha; r ] when r = ref_ -> Some sha
                | _ -> None)
              (String.split_on_char '\n' packed)
          in
          Option.value hit ~default:"unknown"))
  | Some sha -> sha

let header o ~passes =
  Json.Obj
    [
      ("workload", Json.String (Cells.name o.workload));
      ("seed", Json.Int o.seed);
      ("smoke", Json.Bool o.smoke);
      ("seconds", Json.Float o.seconds);
      ("passes", Json.Int passes);
      ("nproc", Json.Int (Domain.recommended_domain_count ()));
      ("jobs", Json.Int (Cells.jobs o.workload));
      ("sweep_jobs", Json.Int (Cells.sweep_jobs ()));
      ("ocaml_version", Json.String Sys.ocaml_version);
      ("git_commit", Json.String (git_commit ()));
      ("clock_source", Json.String M.clock_source);
    ]

(* --- per-layer measurements outside the traced pass --- *)

(* Cost of one call, as the median over five batches after one
   discarded batch. *)
let per_call_ns ~iters f =
  let batch () =
    let t0 = M.now_ns () in
    for _ = 1 to iters do
      f ()
    done;
    float_of_int (M.now_ns () - t0) /. float_of_int iters
  in
  ignore (batch ());
  M.median (List.init 5 (fun _ -> batch ()))

let prng_metrics o =
  let g = Prng.create ~seed:o.seed in
  let scale k = if o.smoke then Int.max 1 (k / 100) else k in
  let ns name iters f = M.metric name "ns" [ per_call_ns ~iters:(scale iters) f ] in
  [
    ns "prng.bits64_ns" 2_000_000 (fun () -> ignore (Sys.opaque_identity (Prng.bits64 g)));
    ns "prng.split_ns" 500_000 (fun () -> ignore (Sys.opaque_identity (Prng.split g)));
    ns "prng.binomial_ns" 500_000 (fun () ->
        ignore (Sys.opaque_identity (Sample.binomial g ~n:1_000_000_000 ~p:1e-6)));
    ns "prng.trichotomy_ns" 1_000_000 (fun () ->
        ignore (Sys.opaque_identity (Sample.trichotomy g ~n:(1 lsl 20) ~p:1e-6)));
  ]

(* One pooled-LMR n = 10^5 election under the greedy jammer, metered and
   not, alternated three times: the ratio of median walls is what the
   energy meter costs, and the metered runs give the awake share. *)
let energy_metrics o =
  let n = if o.smoke then 1_000 else 100_000 in
  let setup = { R.n; eps = 0.5; window = 64; max_slots = 2_000_000 } in
  let cell = R.Cell.v ~base_seed:o.seed ~engine:(R.pooled_lmr ()) ~reps:1 setup Specs.greedy in
  let seed = R.Cell.seed cell ~rep:0 in
  let time energy =
    let t0 = M.now_ns () in
    let r = R.run ~energy ~engine:(R.pooled_lmr ()) setup Specs.greedy ~seed in
    (M.seconds_since t0, r)
  in
  let rounds = List.init 3 (fun _ -> (time true, time false)) in
  let metered = List.map (fun ((w, _), _) -> w) rounds in
  let plain = List.map (fun (_, (w, _)) -> w) rounds in
  let awake, capacity =
    List.fold_left
      (fun (a, c) ((_, (r : Metrics.result)), _) ->
        match r.Metrics.energy with
        | Some s ->
            ( a +. s.Energy.awake_total,
              c +. (float_of_int s.Energy.stations *. float_of_int s.Energy.slots) )
        | None -> failwith "energy probe: a metered run has no energy block")
      (0.0, 0.0) rounds
  in
  [
    M.metric "energy.awake_share" "share" [ awake /. capacity ];
    M.metric "energy.meter_overhead" "x" [ M.median metered /. M.median plain ];
  ]

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* The traced replay and everything the per-layer metrics need. *)
let traced o ready ~passes ~untraced_digest =
  let wall p = p.wall in
  let pass_slots = float_of_int (List.hd passes).tally.slots in
  let gc =
    [
      M.metric "gc.minor_words_per_slot" "words"
        (List.map (fun p -> p.minor_words /. pass_slots) passes);
      M.metric "gc.major_collections" "count"
        (List.map (fun p -> float_of_int p.major) passes);
    ]
  in
  (* Parallel speed-up of this workload's batch: one pass at the other
     of jobs = 1 and jobs = 2, against the timed passes. *)
  let jobs = Cells.jobs o.workload in
  let other_jobs = if jobs = 2 then 1 else 2 in
  let other = (run_pass o ready ~pool:(R.Pool.create ~jobs:other_jobs ())).wall in
  let own = M.median (List.map wall passes) in
  let wall1, wall2 = if jobs = 2 then (other, own) else (own, other) in
  let speedup = wall1 /. wall2 in
  let prng = prng_metrics o in
  let energy = energy_metrics o in
  (* The replay.  Its four phases run for every workload so that every
     layer is measured everywhere; the phases that make up the
     workload's own pass are the ones compared to the untraced wall. *)
  let cells = Cells.cells ~wrap:Tracer.wrap ~smoke:o.smoke ~seed:o.seed o.workload in
  let store = Store.create ~root:(store_root o "trace") () in
  Gc.compact ();
  Tracer.lookup store cells;
  let computed = Tracer.compute cells in
  let io_cold = Store.io_stats store in
  Tracer.persist store cells computed;
  let reloaded = Tracer.reload store cells in
  let io = Store.io_stats store in
  Atomic_io.remove_tree (Store.root store);
  let pass_phases, untraced_wall =
    match o.workload with
    | Cells.Sweep_cold -> ([ "lookup"; "compute"; "persist" ], wall1)
    | Cells.Sweep_warm -> ([ "reload" ], own)
    | Cells.Pooled_weakcd | Cells.Lmr_sleep -> ([ "compute" ], own)
  in
  let a = Tracer.analyse ~phases:pass_phases in
  let traced_wall =
    List.fold_left
      (fun acc (name, w) -> if List.mem name pass_phases then acc +. w else acc)
      0.0 a.Tracer.phase_walls
  in
  let self_sum = List.fold_left (fun acc (_, s) -> acc +. s) 0.0 a.Tracer.self in
  let digest_match = digest computed = untraced_digest && digest reloaded = untraced_digest in
  check "traced outcomes equal untraced outcomes" digest_match;
  check "layer self times add up to the traced pass wall within 5%"
    (Float.abs (self_sum -. traced_wall) <= 0.05 *. traced_wall && a.Tracer.min_self > -1e-6);
  let runs = a.Tracer.runs in
  let sum f = List.fold_left (fun acc x -> acc +. f x) 0.0 runs in
  let sum_if p f = sum (fun ((_, r) as x) -> if p r.Tracer.backend then f x else 0.0) in
  let fl = float_of_int in
  let slots = sum (fun (_, r) -> fl r.Tracer.slots) in
  let station_slots_of p = sum_if p (fun (_, r) -> fl r.Tracer.n *. fl r.Tracer.slots) in
  let station_slots = station_slots_of (fun _ -> true) in
  let pooled = ( = ) "pooled" in
  let closure b = b = "exact" || b = "faulty" || b = "churn" in
  let layer = a.Tracer.by_layer in
  let ns_per s d = ratio (s *. 1e9) d in
  let pool_s f = sum (fun (_, r) -> fl (f r) *. 1e-9) in
  let finds = a.Tracer.finds in
  let find_s = List.fold_left (fun acc s -> acc +. Tracer.dur s) 0.0 finds in
  let decode_s = layer "store.decode" in
  let runner_self =
    Option.value (List.assoc_opt "runner" a.Tracer.self) ~default:0.0
  in
  let one name unit_ v = M.metric name unit_ [ v ] in
  let per_layer =
    [
      one "runner.runs" "count" (fl (List.length runs));
      one "runner.overhead_s" "s" runner_self;
      one "runner.speedup" "x" speedup;
      one "runner.efficiency" "share" (speedup /. 2.0);
      one "build.s" "s" (layer "build");
      one "build.ns_per_station" "ns" (ns_per (layer "build") (sum (fun (_, r) -> fl r.Tracer.n)));
      one "adversary.calls" "count" (sum (fun (_, r) -> fl r.Tracer.adv_calls));
      one "adversary.s" "s" (layer "adversary");
      one "adversary.ns_per_slot" "ns" (ns_per (layer "adversary") slots);
      one "adversary.jammed_share" "share" (ratio (sum (fun (_, r) -> fl r.Tracer.jammed)) slots);
      one "sim.slots" "count" slots;
      one "sim.self_ns_per_slot" "ns" (ns_per (layer "sim") slots);
      one "sim.self_ns_per_station_slot" "ns" (ns_per (layer "sim") station_slots);
      one "sim.finish.s" "s" (layer "sim.finish");
      one "core.pool.begin_slot_s" "s" (pool_s (fun r -> r.Tracer.begin_ns));
      one "core.pool.decide_all_s" "s" (pool_s (fun r -> r.Tracer.decide_ns));
      one "core.pool.observe_all_s" "s" (pool_s (fun r -> r.Tracer.observe_ns));
      one "core.pool.ns_per_station_slot" "ns"
        (ns_per (layer "core.pool") (station_slots_of pooled));
      one "core.station.calls_per_station_slot" "calls"
        (ratio (sum (fun (_, r) -> fl r.Tracer.station_calls)) (station_slots_of closure));
      one "core.aggregate.classes_per_slot" "classes"
        (ratio
           (sum (fun (_, r) -> fl r.Tracer.classes))
           (sum_if (( = ) "aggregate") (fun (_, r) -> fl r.Tracer.slots)));
    ]
    @ energy
    @ [
        one "store.find_calls" "count" (fl (List.length finds));
        one "store.find_s" "s" find_s;
        one "store.decode_s" "s" decode_s;
        one "store.read_parse_s" "s" (find_s -. decode_s);
        one "store.bytes_read" "bytes" (fl (io.Store.bytes_read - io_cold.Store.bytes_read));
        one "store.ns_per_byte_read" "ns"
          (ns_per find_s (fl (io.Store.bytes_read - io_cold.Store.bytes_read)));
        one "store.hit_rate" "share"
          (ratio (fl (io.Store.hits - io_cold.Store.hits)) (fl (List.length finds)));
        one "store.add_calls" "count" (fl (List.length cells));
        one "store.encode_s" "s" (layer "store.encode");
        one "store.add_s" "s" (layer "store.add");
        one "store.bytes_written" "bytes" (fl io.Store.bytes_written);
      ]
    @ prng @ gc
    @ [
        one "trace.overhead" "x" (traced_wall /. untraced_wall);
        one "trace.digest_match" "bool" (if digest_match then 1.0 else 0.0);
      ]
  in
  let backends =
    List.sort_uniq compare (List.map (fun (_, r) -> r.Tracer.backend) runs)
    |> List.map (fun b ->
           let mine = List.filter (fun (_, r) -> r.Tracer.backend = b) runs in
           let s f = List.fold_left (fun acc x -> acc +. f x) 0.0 mine in
           let run_s = s (fun (sp, _) -> Tracer.dur sp) in
           let slots = s (fun (_, r) -> fl r.Tracer.slots) in
           let st_slots = s (fun (_, r) -> fl r.Tracer.n *. fl r.Tracer.slots) in
           ( b,
             Json.Obj
               [
                 ("runs", Json.Int (List.length mine));
                 ("run_s", Json.Float run_s);
                 ("slots", Json.Float slots);
                 ("station_slots", Json.Float st_slots);
                 ("run_ns_per_slot", Json.Float (ns_per run_s slots));
                 ("run_ns_per_station_slot", Json.Float (ns_per run_s st_slots));
               ] ))
  in
  let extra =
    [
      ("pass_phases", Json.List (List.map (fun p -> Json.String p) pass_phases));
      ("traced_pass_s", Json.Float traced_wall);
      ("untraced_jobs1_s", Json.Float untraced_wall);
      ("speedup_walls_s", Json.Obj [ ("jobs1", Json.Float wall1); ("jobs2", Json.Float wall2) ]);
      ("phase_walls_s", Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) a.Tracer.phase_walls));
      ("layer_self_s", Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) a.Tracer.self));
      ("layer_self_sum_s", Json.Float self_sum);
      ("backends", Json.Obj backends);
    ]
  in
  Tracer.write_spans ~path:(Filename.concat o.out (Cells.name o.workload ^ ".spans.jsonl"));
  (per_layer, extra)

(* --- one workload --- *)

let main o =
  let probes = if o.smoke then 1 else match o.workload with Cells.Sweep_warm -> 3 | _ -> 9 in
  let setup_s = List.init probes (fun _ -> probe_setup o) in
  let ready = setup o in
  let io0 = Option.map (fun (st, _) -> Store.io_stats st) ready.warm in
  let pass () = run_pass o ready ~pool:ready.pool in
  (* The warm-up pass, or under --smoke the one pass there is. *)
  let first = run_pass ~json:true o ready ~pool:ready.pool in
  let passes = if o.smoke then [ first ] else timed_passes o pass in
  let d = Option.get first.digest in
  check "every pass produced the same outcomes"
    (List.for_all (fun p -> String.equal p.same first.same) passes);
  (match ready.warm with
  | Some (st, fill) ->
      check "sweep-warm outcomes equal the cold fill" (fill = d);
      let io = Store.io_stats st and io0 = Option.get io0 in
      check "every sweep-warm lookup hit"
        (io.Store.misses = io0.Store.misses && io.Store.hits > io0.Store.hits)
  | None -> ());
  if o.seed = 42 && not o.smoke then
    check "outcome digest matches golden.json" (golden_digest o = Some d);
  let t = (List.hd passes).tally in
  let walls = List.map (fun p -> p.wall) passes in
  let per_pass f = List.map f walls in
  let fl = float_of_int in
  let e2e =
    [
      M.metric "setup_s" "s" setup_s;
      M.metric "wall_s" "s" walls;
      M.metric "elections_per_s" "1/s" (per_pass (fun w -> fl t.elections /. w));
      M.metric "slots_per_s" "1/s" (per_pass (fun w -> fl t.slots /. w));
      M.metric "ns_per_station_slot" "ns" (per_pass (fun w -> w *. 1e9 /. t.station_slots));
    ]
  in
  let layers, extra =
    if o.trace then traced o ready ~passes ~untraced_digest:d else ([], [])
  in
  cleanup ready;
  (try Sys.rmdir (Filename.concat o.out "stores") with Sys_error _ -> ());
  (* Read last, so every pass and the traced replay are covered. *)
  let heap_mb =
    fl ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0
  in
  let e2e = e2e @ [ M.metric "heap_peak_mb" "MB" [ heap_mb ] ] in
  let correct = List.for_all snd !checks in
  let attempted = t.runs * List.length passes and failed = t.failed * List.length passes in
  let metrics ms = Json.Obj (List.map (fun (x : M.metric) -> (x.M.name, M.metric_json x)) ms) in
  let report =
    Json.Obj
      ([
         ("header", header o ~passes:(List.length passes));
         ("correct", Json.Bool correct);
         ( "checks",
           Json.Obj (List.rev_map (fun (name, ok) -> (name, Json.Bool ok)) !checks) );
         ("digest", Json.String d);
         ("attempted", Json.Int attempted);
         ("failed", Json.Int failed);
         ("metrics", metrics e2e);
       ]
      @ if o.trace then [ ("per_layer", metrics layers); ("trace", Json.Obj extra) ] else [])
  in
  let suffix = if o.trace then ".trace.json" else ".json" in
  Atomic_io.write_json ~path:(Filename.concat o.out (Cells.name o.workload ^ suffix)) report;
  List.iter
    (fun (name, ok) -> if not ok then Printf.eprintf "check failed: %s\n%!" name)
    (List.rev !checks);
  let shown = if o.trace then layers else e2e in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Int attempted);
            ("failed", Json.Int failed);
            ( "metrics",
              Json.Obj (List.map (fun (x : M.metric) -> (x.M.name, M.metric_value_json x)) shown)
            );
          ]));
  if not correct then exit 1

(* --- the smoke check behind [dune build @perfbench/bench-smoke] --- *)

(* Runs every workload with [--smoke --trace 1] and fails unless the
   workload and metric names in the reports are exactly the ones
   BENCHMARK.json declares. *)
let smoke_check ~benchmark ~out =
  let bench =
    match Json.read_file ~path:benchmark with Ok j -> j | Error e -> failwith (benchmark ^ ": " ^ e)
  in
  let names field =
    Option.bind (Json.member field bench) Json.to_list_opt
    |> Option.value ~default:[]
    |> List.filter_map (fun x -> Option.bind (Json.member "name" x) Json.to_string_opt)
    |> List.sort compare
  in
  let keys j field =
    match Option.bind (Json.member field j) (function Json.Obj kv -> Some kv | _ -> None) with
    | Some kv -> List.sort compare (List.map fst kv)
    | None -> []
  in
  let problems = ref [] in
  let expect what want got =
    if want <> got then
      problems :=
        Printf.sprintf "%s: BENCHMARK.json has [%s], the report has [%s]" what
          (String.concat " " want) (String.concat " " got)
        :: !problems
  in
  expect "workloads" (names "workloads") (List.sort compare (List.map Cells.name Cells.all));
  List.iter
    (fun k ->
      let w = Cells.name k in
      let args =
        [| Sys.executable_name; "--workload"; w; "--smoke"; "--trace"; "1"; "--seconds"; "0";
           "--out"; out |]
      in
      let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY; Unix.O_CLOEXEC ] 0 in
      let pid = Unix.create_process Sys.executable_name args Unix.stdin devnull Unix.stderr in
      Unix.close devnull;
      match snd (Unix.waitpid [] pid) with
      | Unix.WEXITED 0 -> (
          match Json.read_file ~path:(Filename.concat out (w ^ ".trace.json")) with
          | Ok report ->
              expect (w ^ " end_to_end") (names "end_to_end") (keys report "metrics");
              expect (w ^ " per_layer") (names "per_layer") (keys report "per_layer")
          | Error e -> problems := (w ^ ": unreadable report: " ^ e) :: !problems)
      | _ -> problems := (w ^ ": smoke run failed") :: !problems)
    Cells.all;
  match List.rev !problems with
  | [] -> print_endline "bench-smoke: every workload and metric name matches BENCHMARK.json"
  | ps ->
      List.iter prerr_endline ps;
      exit 1

(* --- command line --- *)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let usage () =
    prerr_endline
      "usage: workloads.exe --workload NAME [--seed S] [--seconds T] [--trace 0|1] [--smoke] \
       [--out DIR]\n\
      \       workloads.exe --smoke-check BENCHMARK.json [--out DIR]";
    exit 2
  in
  let rec parse acc = function
    | [] -> acc
    | "--trace" :: ("0" | "1" as v) :: rest -> parse (("--trace", v) :: acc) rest
    | ("--trace" | "--smoke" | "--setup-probe" as f) :: rest -> parse ((f, "1") :: acc) rest
    | (( "--workload" | "--seed" | "--seconds" | "--out" | "--smoke-check" ) as f)
      :: v :: rest ->
        parse ((f, v) :: acc) rest
    | _ -> usage ()
  in
  let kv = parse [] args in
  let get f = List.assoc_opt f kv in
  let flag f = get f = Some "1" in
  let out = Option.value (get "--out") ~default:"perfbench/out" in
  match get "--smoke-check" with
  | Some benchmark -> smoke_check ~benchmark ~out
  | None -> (
      let number f conv default =
        match get f with
        | None -> default
        | Some v -> ( match conv v with Some x -> x | None -> usage ())
      in
      let workload =
        match Option.bind (get "--workload") Cells.of_name with Some k -> k | None -> usage ()
      in
      let o =
        {
          workload;
          seed = number "--seed" int_of_string_opt 42;
          seconds = number "--seconds" float_of_string_opt 10.0;
          trace = flag "--trace";
          smoke = flag "--smoke";
          out;
        }
      in
      try if flag "--setup-probe" then setup_probe_main o else main o
      with e ->
        Printf.eprintf "workloads: %s\n%!" (Printexc.to_string e);
        exit 2)
