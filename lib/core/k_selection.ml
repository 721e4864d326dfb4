module Aggregate = Jamming_sim.Aggregate
module Metrics = Jamming_sim.Metrics
module Station = Jamming_station.Station

type round_result = { winner_index : int; slots : int }
type outcome = { rounds : round_result list; total_slots : int; completed : bool }

let round_protocol ~eps ~round ~initial_u =
  {
    (Lesk.protocol ~eps ()) with
    Aggregate.name = Printf.sprintf "k-selection round %d" round;
    init = initial_u;
  }

let run ?(warm_start = true) ~k ~n ~eps ~rng ~adversary ~budget ~max_slots () =
  if k < 1 || k > n then invalid_arg "K_selection.run: need 1 <= k <= n";
  let rec go ~round ~remaining ~used ~last_u acc =
    if round > k then { rounds = List.rev acc; total_slots = used; completed = true }
    else if used >= max_slots then
      { rounds = List.rev acc; total_slots = used; completed = false }
    else begin
      let initial_u = if warm_start then Float.max 0.0 (last_u -. 1.0) else 0.0 in
      let protocol = round_protocol ~eps ~round ~initial_u in
      (* Replay the round's u from the slot records: the next round
         warm-starts from the value it was elected at. *)
      let u = ref initial_u in
      let replay (r : Metrics.slot_record) =
        match protocol.step !u r.state with
        | Aggregate.Continue u' -> u := u'
        | Aggregate.Elected -> ()
      in
      let result =
        Jamming_sim.Uniform_engine.run ~start_slot:used
          ~observers:[ Jamming_sim.Observer.of_on_slot replay ]
          ~n:remaining ~rng ~protocol ~adversary ~budget ~max_slots:(max_slots - used) ()
      in
      let used = used + result.Metrics.slots in
      if not result.Metrics.elected then
        { rounds = List.rev acc; total_slots = used; completed = false }
      else
        let winner =
          match result.Metrics.leader with Some i -> i | None -> assert false
        in
        go ~round:(round + 1) ~remaining:(remaining - 1) ~used ~last_u:!u
          ({ winner_index = winner; slots = result.Metrics.slots } :: acc)
    end
  in
  go ~round:1 ~remaining:n ~used:0 ~last_u:0.0 []

type weak_cd_outcome = { winners : int list; slots : int; completed : bool }

let run_weak_cd ~k ~n ~eps ~rng ~adversary ~budget ~max_slots () =
  if k < 1 || n - k < 2 then invalid_arg "K_selection.run_weak_cd: need 1 <= k and n - k >= 2";
  let rec go ~round ~participants ~used acc =
    if round > k then { winners = List.rev acc; slots = used; completed = true }
    else if used >= max_slots then { winners = List.rev acc; slots = used; completed = false }
    else begin
      (* Fresh LEWK instances for the remaining participants; withdrawn
         winners are represented by permanently silent stations so ids
         keep their meaning. *)
      let factory = Lewk.station ~eps () in
      let stations =
        Array.init n (fun id ->
            if List.mem id participants then
              factory ~id ~rng:(Jamming_prng.Prng.split rng)
            else
              {
                Station.id;
                decide = (fun ~slot:_ -> Station.Listen);
                observe = (fun ~slot:_ ~perceived:_ ~transmitted:_ -> ());
                status = (fun () -> Station.Non_leader);
                finished = (fun () -> true);
              })
      in
      (* Each round restarts the interval clock at slot 0 (the budget
         still spans the whole chain: slot labels are cosmetic to it).
         Continuing global numbering would make later rounds begin deep
         inside ever-larger C-intervals and pay their full ramp-up. *)
      let result =
        Jamming_sim.Engine.run ~cd:Jamming_channel.Channel.Weak_cd ~adversary ~budget
          ~max_slots:(max_slots - used) ~stations ()
      in
      let used = used + result.Metrics.slots in
      match result.Metrics.leader with
      | Some id when result.Metrics.completed ->
          go ~round:(round + 1)
            ~participants:(List.filter (fun p -> p <> id) participants)
            ~used (id :: acc)
      | Some _ | None -> { winners = List.rev acc; slots = used; completed = false }
    end
  in
  go ~round:1 ~participants:(List.init n Fun.id) ~used:0 []
