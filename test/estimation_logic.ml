(* Function 2 (§2.3) as a mutable per-station machine: the estimation
   half of [Lesu_declarative], kept apart from the pure
   [Jamming_core.Estimation.step] so that LESU's oracle stays an
   independent implementation. *)

module Channel = Jamming_channel.Channel

type t = {
  threshold : int;
  mutable round : int;
  mutable slots_left : int;  (* slots remaining in the current round *)
  mutable nulls : int;  (* Nulls seen in the current round *)
  mutable finished : int option;
  mutable singled : bool;
}

let create ~threshold =
  if threshold < 1 then invalid_arg "Estimation_logic.create: threshold must be >= 1";
  { threshold; round = 1; slots_left = 2; nulls = 0; finished = None; singled = false }

let tx_prob t =
  (* 2^-2^round; for round >= 10 this underflows towards 0 harmlessly. *)
  Float.exp2 (-.Float.exp2 (float_of_int t.round))

let finished t = t.finished
let singled t = t.singled

let on_state t state =
  if t.finished = None && not t.singled then begin
    (match state with
    | Channel.Single -> t.singled <- true
    | Channel.Null -> t.nulls <- t.nulls + 1
    | Channel.Collision -> ());
    if not t.singled then begin
      t.slots_left <- t.slots_left - 1;
      if t.slots_left = 0 then
        if t.nulls >= t.threshold then t.finished <- Some t.round
        else begin
          t.round <- t.round + 1;
          t.slots_left <- 1 lsl t.round;
          t.nulls <- 0
        end
    end
  end
