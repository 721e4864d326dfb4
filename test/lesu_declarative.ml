module Lesk = Jamming_core.Lesk
module Lesu = Jamming_core.Lesu

(* The estimation phase computes t0 and leaves it in a ref that the
   (lazily constructed) LESK phases read when they start. *)
let estimation_phase ~config ~t0 () =
  let logic = Estimation_logic.create ~threshold:config.Lesu.threshold in
  {
    Schedule.label = "estimation";
    tx_prob = (fun () -> Estimation_logic.tx_prob logic);
    on_state =
      (fun state ->
        Estimation_logic.on_state logic state;
        if Estimation_logic.singled logic then Schedule.Elected
        else
          match Estimation_logic.finished logic with
          | Some round ->
              t0 := config.Lesu.c *. Float.exp2 (float_of_int (1 + round));
              Schedule.Phase_done
          | None -> Schedule.Continue);
  }

let lesk_ladder ~t0 =
  Schedule.repeat_indexed (fun i ->
      Seq.init i (fun j0 ->
          let j = j0 + 1 in
          Schedule.timeboxed
            ~label:(Printf.sprintf "lesk(i=%d,j=%d)" i j)
            ~duration:(fun () -> Lesu.phase_duration ~t0:!t0 ~i ~j)
            (Closure.to_uniform (Lesk.protocol ~eps:(Lesu.eps_guess j) ()))))

let uniform ?on_phase ?(config = Lesu.default_config) () () =
  if not (config.Lesu.c > 0.0) then invalid_arg "Lesu_declarative.uniform: c must be positive";
  let t0 = ref Float.nan in
  let schedule = Seq.cons (estimation_phase ~config ~t0) (lesk_ladder ~t0) in
  Schedule.to_uniform ?on_phase ~name:"LESU-declarative" schedule ()
