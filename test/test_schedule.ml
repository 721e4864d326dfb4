module Lesu = Jamming_core.Lesu
open Test_util

let constant_phase ~label ~duration ~p () =
  Schedule.timeboxed ~label
    ~duration:(fun () -> duration)
    (fun () ->
      {
        Closure.name = label;
        tx_prob = (fun () -> p);
        on_state =
          (fun state ->
            if Channel.equal_state state Channel.Single then Closure.Elected
            else Closure.Continue);
      })
    ()

let test_phases_advance () =
  let labels = ref [] in
  let factory =
    Schedule.to_uniform
      ~on_phase:(fun l -> labels := l :: !labels)
      ~name:"seq"
      (Schedule.of_list
         [
           (fun () -> constant_phase ~label:"a" ~duration:2 ~p:0.25 ());
           (fun () -> constant_phase ~label:"b" ~duration:3 ~p:0.5 ());
         ])
  in
  let u = factory () in
  check_float "phase a prob" 0.25 (u.Closure.tx_prob ());
  ignore (u.Closure.on_state Channel.Collision);
  ignore (u.Closure.on_state Channel.Collision);
  check_float "phase b prob after 2 slots" 0.5 (u.Closure.tx_prob ());
  ignore (u.Closure.on_state Channel.Collision);
  ignore (u.Closure.on_state Channel.Collision);
  ignore (u.Closure.on_state Channel.Collision);
  check_float "exhausted schedule is silent" 0.0 (u.Closure.tx_prob ());
  Alcotest.(check (list string)) "phase order" [ "a"; "b" ] (List.rev !labels)

let test_elected_stops_schedule () =
  let factory =
    Schedule.to_uniform ~name:"stop"
      (Schedule.of_list [ (fun () -> constant_phase ~label:"x" ~duration:10 ~p:0.5 ()) ])
  in
  let u = factory () in
  (match u.Closure.on_state Channel.Single with
  | Closure.Elected -> ()
  | Closure.Continue -> Alcotest.fail "Single must elect");
  check_float "silent after election" 0.0 (u.Closure.tx_prob ())

let test_timeboxed_validation () =
  Alcotest.check_raises "duration 0" (Invalid_argument "Schedule.timeboxed: duration must be >= 1")
    (fun () -> ignore (constant_phase ~label:"z" ~duration:0 ~p:0.5 ()))

let test_repeat_indexed () =
  let stream =
    Schedule.repeat_indexed (fun i ->
        Seq.init i (fun j -> fun () -> constant_phase ~label:(Printf.sprintf "%d.%d" i j) ~duration:1 ~p:0.5 ()))
  in
  let first_six = List.of_seq (Seq.take 6 stream) in
  let labels = List.map (fun make -> (make ()).Schedule.label) first_six in
  Alcotest.(check (list string)) "triangular order"
    [ "1.0"; "2.0"; "2.1"; "3.0"; "3.1"; "3.2" ]
    labels

(* The centrepiece: LESU vs its declarative rebuild must be
   bit-identical on the same seed, for many seeds and parameters. *)
let test_lesu_differential () =
  List.iter
    (fun (n, eps, window) ->
      for seed = 1 to 25 do
        let run protocol =
          let result =
            run_uniform ~seed ~eps ~window ~adversary:Adversary.greedy
              ~max_slots:400_000 ~n protocol
          in
          result.Metrics.slots
        in
        let hand = run (Lesu.protocol ()) in
        let declarative = run (Closure.to_protocol (Lesu_declarative.uniform ())) in
        check_int
          (Printf.sprintf "identical at n=%d eps=%.2f T=%d seed=%d" n eps window seed)
          hand declarative
      done)
    [ (64, 0.5, 32); (1024, 0.5, 64); (256, 0.25, 16); (4096, 0.8, 128) ]

let test_lesu_differential_phase_labels () =
  (* The declarative run's phase sequence follows the (i, j) ladder. *)
  let labels = ref [] in
  let factory = Lesu_declarative.uniform ~on_phase:(fun l -> labels := l :: !labels) () in
  let (_ : Metrics.result) =
    run_uniform ~seed:11 ~eps:0.3 ~window:64 ~adversary:Adversary.greedy ~max_slots:400_000
      ~n:512 (Closure.to_protocol factory)
  in
  match List.rev !labels with
  | "estimation" :: "lesk(i=1,j=1)" :: rest ->
      check_true "ladder grows" (List.length rest >= 0)
  | l -> Alcotest.failf "unexpected phase order: %s" (String.concat ", " l)

let suite =
  [
    ("phases advance and exhaust", `Quick, test_phases_advance);
    ("Elected stops the schedule", `Quick, test_elected_stops_schedule);
    ("timeboxed validation", `Quick, test_timeboxed_validation);
    ("repeat_indexed order", `Quick, test_repeat_indexed);
    ("LESU differential: hand vs declarative", `Slow, test_lesu_differential);
    ("LESU declarative phase labels", `Quick, test_lesu_differential_phase_labels);
  ]
