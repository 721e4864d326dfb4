(* Clock and summary statistics shared by workloads.ml and the tracer. *)

module Json = Jamming_telemetry.Json

let clock_source = "CLOCK_MONOTONIC via bechamel.monotonic_clock"

(* Nanoseconds on the monotonic clock, as an unboxed int. *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())
let seconds_since t0 = float_of_int (now_ns () - t0) *. 1e-9

let sorted xs = List.sort Float.compare xs

(* Quartiles exactly as Python's [statistics.quantiles(xs, n=4)]
   (the default "exclusive" method), so the report's spread reads the
   same as any external check on the raw values. *)
let quartiles xs =
  match sorted xs with
  | [] -> invalid_arg "Measure.quartiles: no samples"
  | [ x ] -> (x, x, x)
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      let m = n + 1 in
      let q i =
        let j = Int.max 1 (Int.min (n - 1) (i * m / 4)) in
        let delta = (i * m) - (j * 4) in
        ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
      in
      (q 1, q 2, q 3)

let median xs =
  let a = Array.of_list (sorted xs) in
  let n = Array.length a in
  if n = 0 then invalid_arg "Measure.median: no samples"
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* A metric as the report stores it: the headline value (the median of
   the per-pass samples) plus everything needed to judge its spread. *)
type metric = { name : string; unit_ : string; samples : float list }

let metric name unit_ samples = { name; unit_; samples }
let value m = median m.samples

let metric_json m =
  let q1, q2, q3 = quartiles m.samples in
  Json.Obj
    [
      ("unit", Json.String m.unit_);
      ("median", Json.Float (value m));
      ("quartiles", Json.List [ Json.Float q1; Json.Float q2; Json.Float q3 ]);
      ("samples", Json.Int (List.length m.samples));
      ("values", Json.List (List.map (fun v -> Json.Float v) m.samples));
    ]

(* The compact form the last stdout line carries. *)
let metric_value_json m =
  Json.Obj [ ("value", Json.Float (value m)); ("unit", Json.String m.unit_) ]
