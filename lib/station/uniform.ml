type outcome = Continue | Elected

type t = {
  name : string;
  tx_prob : unit -> float;
  on_state : Jamming_channel.Channel.state -> outcome;
}

type factory = unit -> t

let distributed factory ~id ~rng =
  let logic = factory () in
  let status = ref Station.Undecided in
  let finished = ref false in
  let decide ~slot:_ =
    let p = logic.tx_prob () in
    if Jamming_prng.Prng.bool rng ~p then Station.Transmit else Station.Listen
  in
  let observe ~slot:_ ~perceived ~transmitted =
    match logic.on_state perceived with
    | Continue -> ()
    | Elected ->
        status := (if transmitted then Station.Leader else Station.Non_leader);
        finished := true
  in
  {
    Station.id;
    decide;
    observe;
    status = (fun () -> !status);
    finished = (fun () -> !finished);
  }
