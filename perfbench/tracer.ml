(* The traced pass: a replay of [Runner.run_cells] at one domain built
   from its public parts ([Cell.key], [Cell.seed], [Store.find],
   [Runner.run]/[Runner.run_churn], [Store.add]), in run_cells' own
   order: every lookup, then every computation, then every write.  A
   fourth phase reads the written cells back, which is what a warm
   [sweep --resume] does.

   Spans are recorded from outside the library only: around those
   calls, and inside wrapped copies of the closure records the library
   calls back ([Adversary.t], [Station.t], [Station.pool],
   [Aggregate.protocol]).  The wrappers are passive (workloads.ml checks
   the traced outcome digest against the untraced one) and never read
   a clock per station: the slot loop is timed through the adversary's
   [wants_jam]/[notify] and the pool's batch calls, which run once per
   slot.  Per-slot timings are summed onto the run span, never stored
   one by one.  One run is in flight at a time, so the accumulators
   are plain globals. *)

module R = Jamming_experiments.Runner
module Specs = Jamming_experiments.Specs
module Adversary = Jamming_adversary.Adversary
module Station = Jamming_station.Station
module Aggregate = Jamming_sim.Aggregate
module Store = Jamming_store.Store
module Json = Jamming_telemetry.Json

let now = Measure.now_ns

(* --- per-run accumulators, filled by the wrapped closures --- *)

type acc = {
  mutable loop_start : int;  (** first slot-loop callback; 0 = not yet *)
  mutable last_notify : int;  (** end of the latest [notify] *)
  mutable slots : int;
  mutable jammed : int;
  mutable adv_ns : int;
  mutable adv_calls : int;
  mutable begin_ns : int;
  mutable decide_ns : int;
  mutable observe_ns : int;
  mutable station_calls : int;
  mutable classes : int;
}

let acc =
  {
    loop_start = 0;
    last_notify = 0;
    slots = 0;
    jammed = 0;
    adv_ns = 0;
    adv_calls = 0;
    begin_ns = 0;
    decide_ns = 0;
    observe_ns = 0;
    station_calls = 0;
    classes = 0;
  }

let reset () =
  acc.loop_start <- 0;
  acc.last_notify <- 0;
  acc.slots <- 0;
  acc.jammed <- 0;
  acc.adv_ns <- 0;
  acc.adv_calls <- 0;
  acc.begin_ns <- 0;
  acc.decide_ns <- 0;
  acc.observe_ns <- 0;
  acc.station_calls <- 0;
  acc.classes <- 0

let loop_mark t = if acc.loop_start = 0 then acc.loop_start <- t

(* --- the wrappers --- *)

let adversary (a : Specs.adversary) =
  {
    a with
    Specs.a_make =
      (fun ~seed ~n ~eps ~window () ->
        let adv = a.Specs.a_make ~seed ~n ~eps ~window () in
        {
          adv with
          Adversary.wants_jam =
            (fun ~slot ~can_jam ->
              let t0 = now () in
              loop_mark t0;
              let r = adv.Adversary.wants_jam ~slot ~can_jam in
              acc.adv_ns <- acc.adv_ns + (now () - t0);
              acc.adv_calls <- acc.adv_calls + 1;
              r);
          notify =
            (fun ~slot ~jammed ~state ->
              let t0 = now () in
              loop_mark t0;
              adv.Adversary.notify ~slot ~jammed ~state;
              let t1 = now () in
              acc.adv_ns <- acc.adv_ns + (t1 - t0);
              acc.adv_calls <- acc.adv_calls + 1;
              acc.slots <- acc.slots + 1;
              if jammed then acc.jammed <- acc.jammed + 1;
              acc.last_notify <- t1);
        });
  }

(* Closure stations are counted, not timed: a clock read per station
   per slot would cost more than the call it measures. *)
let station (factory : Station.factory) : Station.factory =
 fun ~id ~rng ->
  let s = factory ~id ~rng in
  {
    s with
    Station.decide =
      (fun ~slot ->
        acc.station_calls <- acc.station_calls + 1;
        s.Station.decide ~slot);
    observe =
      (fun ~slot ~perceived ~transmitted ->
        acc.station_calls <- acc.station_calls + 1;
        s.Station.observe ~slot ~perceived ~transmitted);
  }

let pool (factory : Station.pool_factory) : Station.pool_factory =
 fun ~n ~rng ->
  let p = factory ~n ~rng in
  {
    p with
    Station.pool_begin_slot =
      (fun ~slot ->
        let t0 = now () in
        loop_mark t0;
        p.Station.pool_begin_slot ~slot;
        acc.begin_ns <- acc.begin_ns + (now () - t0));
    pool_decide_all =
      (fun ~slot ~actions ~tx_counts ->
        let t0 = now () in
        let r = p.Station.pool_decide_all ~slot ~actions ~tx_counts in
        acc.decide_ns <- acc.decide_ns + (now () - t0);
        r);
    pool_observe_all =
      (fun ~slot ~actions ~tx ~rx ->
        let t0 = now () in
        p.Station.pool_observe_all ~slot ~actions ~tx ~rx;
        acc.observe_ns <- acc.observe_ns + (now () - t0));
  }

let engine : R.engine -> R.engine = function
  | R.Uniform _ as e -> e
  | R.Exact e -> R.Exact { e with factory = station e.factory }
  | R.Faulty e -> R.Faulty { e with factory = station e.factory }
  | R.Pooled e -> R.Pooled { e with pool = pool e.pool }
  | R.Aggregate { name; cd; proto = Aggregate.Packed p } ->
      let tx_prob c =
        acc.classes <- acc.classes + 1;
        p.Aggregate.tx_prob c
      in
      R.Aggregate { name; cd; proto = Aggregate.Packed { p with Aggregate.tx_prob } }

let wrap = { Cells.engine; adversary }

(* --- spans --- *)

type run_info = {
  backend : string;
  n : int;
  slots : int;
  jammed : int;
  adv_ns : int;
  adv_calls : int;
  begin_ns : int;
  decide_ns : int;
  observe_ns : int;
  station_calls : int;
  classes : int;
}

type span = {
  id : int;
  name : string;
  parent : int;  (** -1 for a phase *)
  cell : int;
  rep : int;
  start : int;
  stop : int;
  run : run_info option;
}

let spans : span list ref = ref []
let next_id = ref 0

let fresh () =
  let id = !next_id in
  incr next_id;
  id

let push s = spans := s :: !spans

let timed ~name ~parent ~cell f =
  let id = fresh () in
  let start = now () in
  let r = f id in
  push { id; name; parent; cell; rep = -1; start; stop = now (); run = None };
  r

let backend (c : R.Cell.t) =
  match c.R.Cell.population with
  | R.Cell.Churning _ -> "churn"
  | R.Cell.Static -> (
      match c.R.Cell.engine with
      | R.Uniform _ -> "uniform"
      | R.Exact _ -> "exact"
      | R.Faulty _ -> "faulty"
      | R.Aggregate _ -> "aggregate"
      | R.Pooled _ -> "pooled")

(* One [Runner.run]: the run span, its [build] child (entry to the
   first slot-loop callback) and [finish] child (last [notify] to the
   return), and the slot loop's callback sums. *)
let traced_run ~parent ~cell ~rep (c : R.Cell.t) f =
  reset ();
  let id = fresh () in
  let start = now () in
  let r = f () in
  let stop = now () in
  let loop = if acc.loop_start = 0 then stop else acc.loop_start in
  let last = if acc.last_notify = 0 then stop else acc.last_notify in
  push { id = fresh (); name = "build"; parent = id; cell; rep; start; stop = loop; run = None };
  push { id = fresh (); name = "finish"; parent = id; cell; rep; start = last; stop; run = None };
  let run =
    {
      backend = backend c;
      n = c.R.Cell.setup.R.n;
      slots = acc.slots;
      jammed = acc.jammed;
      adv_ns = acc.adv_ns;
      adv_calls = acc.adv_calls;
      begin_ns = acc.begin_ns;
      decide_ns = acc.decide_ns;
      observe_ns = acc.observe_ns;
      station_calls = acc.station_calls;
      classes = acc.classes;
    }
  in
  push { id; name = "run"; parent; cell; rep; start; stop; run = Some run };
  r

(* --- the replay phases --- *)

let decode (c : R.Cell.t) json =
  match c.R.Cell.population with
  | R.Cell.Static -> Result.to_option (Result.map (fun s -> R.Sample s) (R.sample_of_json json))
  | R.Cell.Churning _ ->
      Result.to_option (Result.map (fun s -> R.Churned s) (R.churn_sample_of_json json))

let outcome_json = function
  | R.Sample s -> R.sample_to_json ~include_results:true s
  | R.Churned cs -> R.churn_sample_to_json ~include_results:true cs

let phase name f = timed ~name ~parent:(-1) ~cell:(-1) f

(* Every cell misses in a fresh store, as on a cold sweep. *)
let lookup store cells =
  phase "lookup" (fun pid ->
      List.iteri
        (fun ci c ->
          let key = R.Cell.key c in
          match timed ~name:"find" ~parent:pid ~cell:ci (fun _ -> Store.find store key ~decode:(decode c)) with
          | None -> ()
          | Some _ -> failwith "traced lookup: a fresh store served a hit")
        cells)

let compute cells =
  phase "compute" (fun pid ->
      List.mapi
        (fun ci (c : R.Cell.t) ->
          let seeds = Array.init c.R.Cell.reps (fun rep -> R.Cell.seed c ~rep) in
          let run rep f = traced_run ~parent:pid ~cell:ci ~rep c f in
          let { R.Cell.engine; setup; adversary; _ } = c in
          match c.R.Cell.population with
          | R.Cell.Static ->
              R.Sample
                {
                  R.setup;
                  protocol_name = R.engine_name engine;
                  adversary_name = adversary.Specs.a_name;
                  results =
                    Array.mapi
                      (fun rep seed ->
                        run rep (fun () -> R.run ~energy:c.R.Cell.energy ~engine setup adversary ~seed))
                      seeds;
                }
          | R.Cell.Churning { churn; restart_after } ->
              R.Churned
                {
                  R.c_setup = setup;
                  c_protocol_name = R.engine_name engine;
                  c_adversary_name = adversary.Specs.a_name;
                  c_churn = Jamming_faults.Churn.descriptor churn;
                  c_results =
                    Array.mapi
                      (fun rep seed ->
                        run rep (fun () ->
                            R.run_churn ~engine ~churn ?restart_after setup adversary ~seed))
                      seeds;
                })
        cells)

let persist store cells outcomes =
  phase "persist" (fun pid ->
      List.iteri
        (fun ci (c, o) ->
          let key = R.Cell.key c in
          let json = timed ~name:"encode" ~parent:pid ~cell:ci (fun _ -> outcome_json o) in
          timed ~name:"add" ~parent:pid ~cell:ci (fun _ -> Store.add store key json))
        (List.combine cells outcomes))

let reload store cells =
  phase "reload" (fun pid ->
      List.mapi
        (fun ci c ->
          let key = R.Cell.key c in
          match
            timed ~name:"find" ~parent:pid ~cell:ci (fun fid ->
                Store.find store key ~decode:(fun json ->
                    timed ~name:"decode" ~parent:fid ~cell:ci (fun _ -> decode c json)))
          with
          | Some o -> o
          | None -> failwith "traced reload: a written cell missed")
        cells)

(* --- analysis --- *)

let layer_of = function
  | "lookup" | "compute" | "persist" | "reload" -> "runner"
  | "run" -> "sim"
  | "build" -> "build"
  | "finish" -> "sim.finish"
  | "find" -> "store.read_parse"
  | "decode" -> "store.decode"
  | "encode" -> "store.encode"
  | "add" -> "store.add"
  | other -> invalid_arg ("Tracer.layer_of: " ^ other)

let callback_ns r = r.adv_ns + r.begin_ns + r.decide_ns + r.observe_ns

type analysis = {
  phase_walls : (string * float) list;  (** seconds per phase *)
  self : (string * float) list;  (** self seconds per layer over the given phases *)
  min_self : float;  (** most negative span self time, seconds (0 when none) *)
  runs : (span * run_info) list;  (** compute-phase runs *)
  finds : span list;  (** reload-phase finds *)
  by_layer : string -> float;  (** self seconds per layer over every phase *)
}

let dur s = float_of_int (s.stop - s.start) *. 1e-9

(* Self time of a span is its duration minus its children's and, for a
   run, minus the slot-loop callbacks summed onto it; every span's self
   time goes to one layer, so the layers of a phase add up to the
   phase's wall time. *)
let analyse ~phases =
  let all = !spans in
  let by_id = Hashtbl.create 4096 in
  List.iter (fun s -> Hashtbl.replace by_id s.id s) all;
  let children = Hashtbl.create 4096 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace children s.parent
          ((s.stop - s.start) + Option.value (Hashtbl.find_opt children s.parent) ~default:0))
    all;
  let rec phase_of s = if s.parent < 0 then s.name else phase_of (Hashtbl.find by_id s.parent) in
  let self_ns s =
    (s.stop - s.start)
    - Option.value (Hashtbl.find_opt children s.id) ~default:0
    - match s.run with Some r -> callback_ns r | None -> 0
  in
  let totals = Hashtbl.create 16 in
  let add_to layer ns =
    Hashtbl.replace totals layer (ns + Option.value (Hashtbl.find_opt totals layer) ~default:0)
  in
  let pass_totals = Hashtbl.create 16 in
  let min_self = ref 0 in
  List.iter
    (fun s ->
      let in_pass = List.mem (phase_of s) phases in
      let credit layer ns =
        add_to layer ns;
        if in_pass then
          Hashtbl.replace pass_totals layer
            (ns + Option.value (Hashtbl.find_opt pass_totals layer) ~default:0)
      in
      let own = self_ns s in
      if own < !min_self then min_self := own;
      credit (layer_of s.name) own;
      match s.run with
      | Some r ->
          credit "adversary" r.adv_ns;
          credit "core.pool" (r.begin_ns + r.decide_ns + r.observe_ns)
      | None -> ())
    all;
  let secs tbl = Hashtbl.fold (fun k v acc -> (k, float_of_int v *. 1e-9) :: acc) tbl [] in
  let sorted l = List.sort (fun (a, _) (b, _) -> compare a b) l in
  let totals_s = secs totals in
  {
    phase_walls =
      List.rev
        (List.filter_map
           (fun s -> if s.parent < 0 then Some (s.name, dur s) else None)
           all);
    self = sorted (secs pass_totals);
    min_self = float_of_int !min_self *. 1e-9;
    runs =
      List.rev
        (List.filter_map
           (fun s ->
             match s.run with
             | Some r when phase_of s = "compute" -> Some (s, r)
             | Some _ | None -> None)
           all);
    finds =
      List.rev (List.filter (fun s -> s.name = "find" && phase_of s = "reload") all);
    by_layer = (fun l -> Option.value (List.assoc_opt l totals_s) ~default:0.0);
  }

let span_json ~origin s =
  Json.Obj
    ([
       ("id", Json.Int s.id);
       ("name", Json.String s.name);
       ("parent", Json.Int s.parent);
       ("cell", Json.Int s.cell);
       ("rep", Json.Int s.rep);
       ("start_ns", Json.Int (s.start - origin));
       ("end_ns", Json.Int (s.stop - origin));
     ]
    @
    match s.run with
    | None -> []
    | Some r ->
        [
          ("backend", Json.String r.backend);
          ("n", Json.Int r.n);
          ("slots", Json.Int r.slots);
          ("jammed", Json.Int r.jammed);
          ("adversary_ns", Json.Int r.adv_ns);
          ("adversary_calls", Json.Int r.adv_calls);
          ("pool_begin_ns", Json.Int r.begin_ns);
          ("pool_decide_ns", Json.Int r.decide_ns);
          ("pool_observe_ns", Json.Int r.observe_ns);
          ("station_calls", Json.Int r.station_calls);
          ("classes", Json.Int r.classes);
        ])

(* All spans, in start order, one JSON object per line. *)
let write_spans ~path =
  let all = List.sort (fun a b -> compare (a.start, a.id) (b.start, b.id)) !spans in
  let origin = match all with s :: _ -> s.start | [] -> 0 in
  Jamming_store.Atomic_io.ensure_dir (Filename.dirname path);
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> List.iter (fun s -> Json.write_line oc (span_json ~origin s)) all)
