module Channel = Jamming_channel.Channel

type step = Continue | Elected | Phase_done

type phase = {
  label : string;
  tx_prob : unit -> float;
  on_state : Channel.state -> step;
}

type t = (unit -> phase) Seq.t

let timeboxed ~label ~duration factory () =
  let logic = factory () in
  let n = duration () in
  if n < 1 then invalid_arg "Schedule.timeboxed: duration must be >= 1";
  let remaining = ref n in
  {
    label;
    tx_prob = (fun () -> logic.Closure.tx_prob ());
    on_state =
      (fun state ->
        match logic.Closure.on_state state with
        | Closure.Elected -> Elected
        | Closure.Continue ->
            decr remaining;
            if !remaining <= 0 then Phase_done else Continue);
  }

let of_list = List.to_seq

let repeat_indexed f =
  Seq.concat_map f (Seq.unfold (fun i -> Some (i, i + 1)) 1)

type runner_state =
  | Running of phase * t
  | Exhausted
  | Over  (** elected *)

let to_uniform ?(on_phase = fun _ -> ()) ~name schedule () =
  let start stream =
    match Seq.uncons stream with
    | Some (make, rest) ->
        let phase = make () in
        on_phase phase.label;
        Running (phase, rest)
    | None -> Exhausted
  in
  let state = ref (start schedule) in
  {
    Closure.name;
    tx_prob =
      (fun () ->
        match !state with
        | Running (phase, _) -> phase.tx_prob ()
        | Exhausted | Over -> 0.0);
    on_state =
      (fun st ->
        match !state with
        | Exhausted | Over -> Closure.Continue
        | Running (phase, rest) -> (
            match phase.on_state st with
            | Continue -> Closure.Continue
            | Elected ->
                state := Over;
                Closure.Elected
            | Phase_done ->
                state := start rest;
                Closure.Continue));
  }
