(* The pre-active-set exact engine: the test suite's differential
   oracle for [Engine.run].  Three full O(n) scans per slot and a fresh
   O(n) leader scan whenever an observer asks for leader counts, with
   none of the active set's bookkeeping.  It builds its result on its
   own — an election counts only when the run completed with exactly
   one [Leader] — so the comparison also checks the leader/elected
   rules of the engine's epilogue.  [Engine.run] must stay bit-identical
   to it: same results, slot records, leader counts and sensing-noise
   draws, for every seed.  Runs start at slot 0. *)

module Channel = Jamming_channel.Channel
module Adversary = Jamming_adversary.Adversary
module Budget = Jamming_adversary.Budget
module Station = Jamming_station.Station
module Injection = Jamming_faults.Injection
module Energy = Jamming_energy.Energy
module Metrics = Jamming_sim.Metrics
module Observer = Jamming_sim.Observer

let is_leader s = Station.equal_status (s.Station.status ()) Station.Leader

let run ?faults ?meter ?(observers = []) ~cd ~adversary ~budget ~max_slots ~stations () =
  let n = Array.length stations in
  let obs = Array.of_list observers in
  let needs_leaders = Array.exists (fun o -> o.Observer.needs_leaders) obs in
  let actions = Array.make n Station.Listen in
  let tx_counts = Array.make n 0 in
  let jammed_slots = ref 0 in
  let nulls = ref 0 and singles = ref 0 and collisions = ref 0 in
  let all_finished () = Array.for_all (fun s -> s.Station.finished ()) stations in
  let noise = Option.bind faults (fun f -> if Injection.active f then Some f else None) in
  let wake_abs = Array.make n min_int in
  (* Note each station's termination once, at the same slot the
     active-set engine's compaction would. *)
  let noted = Array.make n false in
  let note_done_from slot =
    Option.iter
      (fun m ->
        Array.iteri
          (fun i s ->
            if (not noted.(i)) && s.Station.finished () then begin
              noted.(i) <- true;
              Energy.Meter.note_finish m i ~from:slot
            end)
          stations)
      meter
  in
  let slot = ref 0 in
  let finished = ref (all_finished ()) in
  note_done_from 0;
  while (not !finished) && !slot < max_slots do
    let t = !slot in
    let can_jam = Budget.can_jam budget in
    let jam = can_jam && adversary.Adversary.wants_jam ~slot:t ~can_jam in
    Budget.advance budget ~jam;
    let transmitters = ref 0 in
    Array.iteri
      (fun i s ->
        actions.(i) <- Station.Listen;
        if wake_abs.(i) <= t && not (s.Station.finished ()) then
          match s.Station.decide ~slot:t with
          | Station.Transmit ->
              actions.(i) <- Station.Transmit;
              incr transmitters;
              tx_counts.(i) <- tx_counts.(i) + 1;
              Option.iter (fun m -> Energy.Meter.note_tx m i) meter
          | Station.Listen -> ()
          | Station.Sleep until ->
              if until <= t then invalid_arg "Reference_engine.run: Sleep into the past";
              wake_abs.(i) <- until;
              Option.iter (fun m -> Energy.Meter.note_sleep m i ~from:t ~until) meter)
      stations;
    let state = Channel.resolve ~transmitters:!transmitters ~jammed:jam in
    if jam then incr jammed_slots;
    incr
      (match state with
      | Channel.Null -> nulls
      | Channel.Single -> singles
      | Channel.Collision -> collisions);
    Array.iteri
      (fun i s ->
        if wake_abs.(i) <= t && not (s.Station.finished ()) then begin
          let transmitted = Station.equal_action actions.(i) Station.Transmit in
          let sensed =
            match noise with None -> state | Some inj -> Injection.sense inj state
          in
          s.Station.observe ~slot:t ~perceived:(Channel.perceive cd sensed ~transmitted)
            ~transmitted
        end)
      stations;
    note_done_from (t + 1);
    adversary.Adversary.notify ~slot:t ~jammed:jam ~state;
    let record =
      { Metrics.slot = t; transmitters = Metrics.Exact !transmitters; jammed = jam; state }
    in
    let leaders =
      if not needs_leaders then -1
      else Array.fold_left (fun k s -> if is_leader s then k + 1 else k) 0 stations
    in
    Array.iter (fun o -> o.Observer.on_slot record ~leaders) obs;
    incr slot;
    finished := all_finished ()
  done;
  let leaders = List.filter (fun i -> is_leader stations.(i)) (List.init n Fun.id) in
  let elected, leader =
    match leaders with [ i ] when !finished -> (true, Some i) | _ -> (false, None)
  in
  let result =
    {
      Metrics.slots = !slot;
      completed = !finished;
      elected;
      leader;
      statuses = Array.map (fun s -> s.Station.status ()) stations;
      jammed_slots = !jammed_slots;
      nulls = !nulls;
      singles = !singles;
      collisions = !collisions;
      transmissions = float_of_int (Array.fold_left ( + ) 0 tx_counts);
      max_station_transmissions = Array.fold_left Int.max 0 tx_counts;
      energy = Option.map (fun m -> Energy.Meter.summarize m ~slots:!slot) meter;
    }
  in
  Array.iter (fun o -> o.Observer.on_result result) obs;
  result
