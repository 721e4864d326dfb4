module Channel = Jamming_channel.Channel
module Adversary = Jamming_adversary.Adversary
module Budget = Jamming_adversary.Budget
module Sample = Jamming_prng.Sample
module Prng = Jamming_prng.Prng

let run ?(start_slot = 0) ?(energy = false) ?(observers = []) ~n ~rng
    ~(protocol : _ Aggregate.protocol) ~adversary ~budget ~max_slots () =
  if n < 1 then invalid_arg "Uniform_engine.run: need n >= 1";
  let obs = Array.of_list observers in
  let observed = Array.length obs > 0 in
  let jammed_slots = ref 0 in
  let nulls = ref 0 and singles = ref 0 and collisions = ref 0 in
  let transmissions = ref 0.0 in
  let slot = ref 0 in
  let current = ref protocol.init in
  let elected = ref false in
  while (not !elected) && !slot < max_slots do
    let t = start_slot + !slot in
    let can_jam = Budget.can_jam budget in
    let jam = can_jam && adversary.Adversary.wants_jam ~slot:t ~can_jam in
    Budget.advance budget ~jam;
    let p = protocol.tx_prob !current in
    if not (p >= 0.0 && p <= 1.0) then
      invalid_arg "Uniform_engine.run: protocol emitted a probability outside [0, 1]";
    transmissions := !transmissions +. (float_of_int n *. p);
    let class_ = Sample.trichotomy rng ~n ~p in
    let transmitters =
      match class_ with Sample.Zero -> 0 | Sample.One -> 1 | Sample.Many -> 2
    in
    let state = Channel.resolve ~transmitters ~jammed:jam in
    if jam then incr jammed_slots;
    (match state with
    | Channel.Null -> incr nulls
    | Channel.Single -> incr singles
    | Channel.Collision -> incr collisions);
    (match protocol.step !current state with
    | Aggregate.Continue c -> current := c
    | Aggregate.Elected -> elected := true);
    adversary.Adversary.notify ~slot:t ~jammed:jam ~state;
    if observed then begin
      (* Per-station statuses don't exist on this engine, so the leader
         count is reported as unknown (-1).  The Many class only pins
         the count to "at least two" — the exact count is never
         sampled, and the record says so instead of fabricating 2. *)
      let tx =
        match class_ with
        | Sample.Zero | Sample.One -> Metrics.Exact transmitters
        | Sample.Many -> Metrics.At_least 2
      in
      let record = { Metrics.slot = t; transmitters = tx; jammed = jam; state } in
      Array.iter (fun o -> o.Observer.on_slot record ~leaders:(-1)) obs
    end;
    incr slot
  done;
  let result =
    {
      Metrics.slots = !slot;
      completed = !elected;
      elected = !elected;
      leader = (if !elected then Some (Prng.int rng ~bound:n) else None);
      statuses = [||];
      jammed_slots = !jammed_slots;
      nulls = !nulls;
      singles = !singles;
      collisions = !collisions;
      transmissions = !transmissions;
      max_station_transmissions = 0;
      (* Uniform protocols never sleep: every station is awake for the
         whole run, and the transmission total is the accumulated
         expectation, so the summary is O(1) to synthesize. *)
      energy =
        (if energy then
           Some (Jamming_energy.Energy.all_awake ~n ~slots:!slot ~tx_total:!transmissions)
         else None);
    }
  in
  Gauges.note_run ~slots:!slot;
  Array.iter (fun o -> o.Observer.on_result result) obs;
  result
