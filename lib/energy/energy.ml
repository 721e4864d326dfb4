module Json = Jamming_telemetry.Json

(* Log₂ binning with the exact semantics of lib/telemetry's histograms
   (bin 0 holds values <= 0, bin i >= 1 holds [2^(i-1), 2^i)), so the
   awake-slot histogram reads like every other histogram in a report. *)
let hist_bins = 63

let bin_of v =
  if v <= 0 then 0
  else
    let rec go i v = if v = 0 then i else go (i + 1) (v lsr 1) in
    Int.min (hist_bins - 1) (go 0 v)

type summary = {
  stations : int;
  slots : int;
  awake_total : float;
  tx_total : float;
  listen_total : float;
  sleep_total : float;
  max_awake : int;
  median_awake : float;
  awake_bins : (int * int) list;
}

let equal_summary a b =
  a.stations = b.stations && a.slots = b.slots
  && Float.equal a.awake_total b.awake_total
  && Float.equal a.tx_total b.tx_total
  && Float.equal a.listen_total b.listen_total
  && Float.equal a.sleep_total b.sleep_total
  && a.max_awake = b.max_awake
  && Float.equal a.median_awake b.median_awake
  && a.awake_bins = b.awake_bins

let summary_to_json s =
  Json.Obj
    [
      ("stations", Json.Int s.stations);
      ("slots", Json.Int s.slots);
      ("awake", Json.Float s.awake_total);
      ("tx", Json.Float s.tx_total);
      ("listen", Json.Float s.listen_total);
      ("sleep", Json.Float s.sleep_total);
      ("max_awake", Json.Int s.max_awake);
      ("median_awake", Json.Float s.median_awake);
      ( "log2_awake",
        Json.List
          (List.map (fun (b, c) -> Json.List [ Json.Int b; Json.Int c ]) s.awake_bins) );
    ]

let summary_of_json json =
  let ( let* ) = Result.bind in
  let int_field name =
    match Json.member name json with
    | Some (Json.Int v) -> Ok v
    | _ -> Error (Printf.sprintf "energy: missing or non-int %S" name)
  in
  let float_field name =
    match Json.member name json with
    | Some (Json.Float v) -> Ok v
    | Some (Json.Int v) -> Ok (float_of_int v)
    | _ -> Error (Printf.sprintf "energy: missing or non-float %S" name)
  in
  let* stations = int_field "stations" in
  let* slots = int_field "slots" in
  let* awake_total = float_field "awake" in
  let* tx_total = float_field "tx" in
  let* listen_total = float_field "listen" in
  let* sleep_total = float_field "sleep" in
  let* max_awake = int_field "max_awake" in
  let* median_awake = float_field "median_awake" in
  let* awake_bins =
    match Json.member "log2_awake" json with
    | Some (Json.List items) ->
        let rec go acc = function
          | [] -> Ok (List.rev acc)
          | Json.List [ Json.Int b; Json.Int c ] :: rest -> go ((b, c) :: acc) rest
          | _ -> Error "energy: malformed log2_awake entry"
        in
        go [] items
    | _ -> Error "energy: missing log2_awake"
  in
  Ok
    {
      stations;
      slots;
      awake_total;
      tx_total;
      listen_total;
      sleep_total;
      max_awake;
      median_awake;
      awake_bins;
    }

(* Grouped summary for the counting engines, where stations are
   exchangeable within a class: [groups] lists [(awake, count)] pairs
   covering the population (counts must be positive and sum to [n]).
   O(#groups log #groups), independent of [n] — the aggregate engine
   calls this with one group per retirement event. *)
let of_groups ~n ~slots ~tx_total ~groups =
  let groups = List.filter (fun (_, c) -> c > 0) groups in
  let covered = List.fold_left (fun acc (_, c) -> acc + c) 0 groups in
  if covered <> n then invalid_arg "Energy.of_groups: group counts must sum to n";
  let sorted = List.sort (fun (a, _) (b, _) -> compare a b) groups in
  let awake_total =
    List.fold_left (fun acc (a, c) -> acc +. (float_of_int a *. float_of_int c)) 0.0 sorted
  in
  let max_awake = List.fold_left (fun acc (a, _) -> Int.max acc a) 0 sorted in
  let median_awake =
    if n = 0 then 0.0
    else begin
      (* 0-based ranks of the two middle elements (equal when odd). *)
      let r1 = (n - 1) / 2 and r2 = n / 2 in
      let at rank =
        let rec go seen = function
          | [] -> 0
          | (a, c) :: rest -> if rank < seen + c then a else go (seen + c) rest
        in
        go 0 sorted
      in
      float_of_int (at r1 + at r2) /. 2.0
    end
  in
  let bins = Array.make hist_bins 0 in
  List.iter (fun (a, c) -> bins.(bin_of a) <- bins.(bin_of a) + c) sorted;
  let sparse = ref [] in
  for b = hist_bins - 1 downto 0 do
    if bins.(b) > 0 then sparse := (b, bins.(b)) :: !sparse
  done;
  {
    stations = n;
    slots;
    awake_total;
    tx_total;
    listen_total = awake_total -. tx_total;
    sleep_total = (float_of_int n *. float_of_int slots) -. awake_total;
    max_awake;
    median_awake;
    awake_bins = !sparse;
  }

(* Build a summary from per-station integer counts by counting the
   awake values into [(awake, count)] groups: extra memory grows with
   the number of distinct awake values, never with [n] or [slots].
   [awake i] must lie in [0, slots] and dominate [tx i]. *)
let of_per_station ~n ~slots ~tx ~awake =
  let counts = Hashtbl.create 64 in
  let tx_total = ref 0 in
  for i = 0 to n - 1 do
    let a = awake i in
    Hashtbl.replace counts a (1 + Option.value (Hashtbl.find_opt counts a) ~default:0);
    tx_total := !tx_total + tx i
  done;
  of_groups ~n ~slots ~tx_total:(float_of_int !tx_total)
    ~groups:(Hashtbl.fold (fun a c acc -> (a, c) :: acc) counts [])

(* O(1) summary for the uniform engine, where every station is awake
   for the whole run and the transmission total may be fractional (the
   uniform engine accumulates expectations). *)
let all_awake ~n ~slots ~tx_total = of_groups ~n ~slots ~tx_total ~groups:[ (slots, n) ]

module Meter = struct
  (* Event-driven accounting: the engine reports transmissions, sleep
     intervals and terminations as they happen; every slot not covered
     by a flushed-or-pending sleep interval counts as awake at
     [summarize] time, so per-slot work stays O(1) per event rather
     than O(n) per slot. *)
  type t = {
    n : int;
    tx : int array;
    sleep : int array;
    (* Current unflushed sleep interval per station, [from, until) in
       engine-relative slots; [pending_from.(i) < 0] means none.
       [until = max_int] encodes "asleep for the rest of the run"
       (a finished or crashed station). *)
    pending_from : int array;
    pending_until : int array;
  }

  let create ~n =
    if n < 0 then invalid_arg "Energy.Meter.create: n must be >= 0";
    {
      n;
      tx = Array.make n 0;
      sleep = Array.make n 0;
      pending_from = Array.make n (-1);
      pending_until = Array.make n 0;
    }

  let n t = t.n
  let note_tx t i = t.tx.(i) <- t.tx.(i) + 1
  let tx t i = t.tx.(i)

  let flush t i ~horizon =
    if t.pending_from.(i) >= 0 then begin
      let until = Int.min t.pending_until.(i) horizon in
      if until > t.pending_from.(i) then
        t.sleep.(i) <- t.sleep.(i) + (until - t.pending_from.(i));
      t.pending_from.(i) <- -1
    end

  let note_sleep t i ~from ~until =
    if until <= from then invalid_arg "Energy.Meter.note_sleep: empty interval";
    (* Any previous interval has fully elapsed by [from] (a station
       only sleeps again after waking), so clamping at [from] flushes
       it exactly. *)
    flush t i ~horizon:from;
    t.pending_from.(i) <- from;
    t.pending_until.(i) <- until

  let note_finish t i ~from =
    flush t i ~horizon:from;
    t.pending_from.(i) <- from;
    t.pending_until.(i) <- max_int

  let summarize t ~slots =
    for i = 0 to t.n - 1 do
      flush t i ~horizon:slots
    done;
    of_per_station ~n:t.n ~slots
      ~tx:(fun i -> t.tx.(i))
      ~awake:(fun i -> slots - t.sleep.(i))
end

let summarize = Meter.summarize

let observe_summary sink ~prefix s =
  let module T = Jamming_telemetry.Telemetry in
  let c name = T.counter sink (prefix ^ "." ^ name) in
  T.add (c "runs") 1;
  T.add (c "stations") s.stations;
  T.add (c "awake") (int_of_float s.awake_total);
  T.add (c "tx") (int_of_float s.tx_total);
  T.add (c "sleep") (int_of_float s.sleep_total);
  T.observe (T.histogram sink (prefix ^ ".max_awake")) s.max_awake;
  T.observe (T.histogram sink (prefix ^ ".median_awake")) (int_of_float s.median_awake)
