module Trace = Jamming_sim.Trace
open Test_util

let mk_record slot state jammed =
  { Metrics.slot; transmitters = Metrics.Exact 1; jammed; state }

let test_validation () =
  Alcotest.check_raises "capacity 0" (Invalid_argument "Trace.create: capacity must be >= 1")
    (fun () -> ignore (Trace.create ~capacity:0))

let test_records_in_order () =
  let t = Trace.create ~capacity:10 in
  for i = 0 to 4 do
    Trace.record t (mk_record i Channel.Null false)
  done;
  check_int "recorded" 5 (Trace.recorded t);
  let slots = List.map (fun r -> r.Metrics.slot) (Trace.to_list t) in
  Alcotest.(check (list int)) "oldest first" [ 0; 1; 2; 3; 4 ] slots

let test_ring_overwrite () =
  let t = Trace.create ~capacity:3 in
  for i = 0 to 9 do
    Trace.record t (mk_record i Channel.Collision false)
  done;
  check_int "recorded counts everything" 10 (Trace.recorded t);
  let slots = List.map (fun r -> r.Metrics.slot) (Trace.to_list t) in
  Alcotest.(check (list int)) "keeps the tail" [ 7; 8; 9 ] slots

let test_counters () =
  let t = Trace.create ~capacity:10 in
  Trace.record t (mk_record 0 Channel.Null false);
  Trace.record t (mk_record 1 Channel.Single false);
  Trace.record t (mk_record 2 Channel.Collision true);
  Trace.record t (mk_record 3 Channel.Collision true);
  check_int "null count" 1 (Trace.count_state t Channel.Null);
  check_int "single count" 1 (Trace.count_state t Channel.Single);
  check_int "collision count" 2 (Trace.count_state t Channel.Collision);
  check_int "jam count" 2 (Trace.count_jammed t)

let contains_substring haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  go 0

let test_engine_integration () =
  let t = Trace.create ~capacity:100_000 in
  let rng = rng () in
  let budget = Budget.create ~window:32 ~eps:0.5 in
  let result =
    Uniform_engine.run
      ~observers:[ Jamming_sim.Observer.of_on_slot (Trace.record t) ]
      ~n:64 ~rng
      ~protocol:(Jamming_core.Lesk.protocol ~eps:0.5 ())
      ~adversary:(Adversary.greedy ()) ~budget ~max_slots:100_000 ()
  in
  check_int "trace saw every slot" result.Metrics.slots (Trace.recorded t);
  check_int "jam counts agree" result.Metrics.jammed_slots (Trace.count_jammed t)

let test_pp_tx_counts () =
  (* Exact counts print as tx=k; the uniform engine's Many class is only
     a lower bound and must not render as an exact count. *)
  let exact = Format.asprintf "%a" Trace.pp_record (mk_record 0 Channel.Single false) in
  check_true "exact count prints tx=1" (contains_substring exact "tx=1");
  let many =
    { Metrics.slot = 1; transmitters = Metrics.At_least 2; jammed = false;
      state = Channel.Collision }
  in
  let s = Format.asprintf "%a" Trace.pp_record many in
  check_true "lower bound prints tx>=2" (contains_substring s "tx>=2");
  check_true "lower bound does not claim tx=2" (not (contains_substring s "tx=2"))

let test_pp_mentions_drops () =
  let t = Trace.create ~capacity:2 in
  for i = 0 to 4 do
    Trace.record t (mk_record i Channel.Null false)
  done;
  let s = Format.asprintf "%a" Trace.pp t in
  check_true "rendering mentions dropped records" (contains_substring s "dropped")

let suite =
  [
    ("validation", `Quick, test_validation);
    ("records in order", `Quick, test_records_in_order);
    ("ring overwrite keeps tail", `Quick, test_ring_overwrite);
    ("state counters", `Quick, test_counters);
    ("engine integration", `Quick, test_engine_integration);
    ("pp renders tx counts honestly", `Quick, test_pp_tx_counts);
    ("pp mentions drops", `Quick, test_pp_mentions_drops);
  ]
