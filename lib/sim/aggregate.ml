module Channel = Jamming_channel.Channel
module Adversary = Jamming_adversary.Adversary
module Budget = Jamming_adversary.Budget
module Sample = Jamming_prng.Sample
module Prng = Jamming_prng.Prng
module Station = Jamming_station.Station

type 'c outcome = Continue of 'c | Elected

type 'c protocol = {
  name : string;
  init : 'c;
  tx_prob : 'c -> float;
  step : 'c -> Channel.state -> 'c outcome;
  compare : 'c -> 'c -> int;
}

type packed = Packed : 'c protocol -> packed

let name (Packed p) = p.name

let distributed p ~id ~rng =
  let state = ref p.init in
  let status = ref Station.Undecided and finished = ref false in
  let decide ~slot:_ =
    if Prng.bool rng ~p:(p.tx_prob !state) then Station.Transmit else Station.Listen
  in
  let observe ~slot:_ ~perceived ~transmitted =
    match p.step !state perceived with
    | Continue s -> state := s
    | Elected ->
        status := if transmitted then Station.Leader else Station.Non_leader;
        finished := true
  in
  {
    Station.id;
    decide;
    observe;
    status = (fun () -> !status);
    finished = (fun () -> !finished);
  }

(* Sort by protocol order and fuse classes that landed on the same
   state.  Keeping the list sorted makes the per-slot binomial draw
   order (and hence the random stream) a deterministic function of the
   class multiset, independent of the merge history. *)
let normalise compare classes =
  let sorted = List.sort (fun (a, _) (b, _) -> compare a b) classes in
  let rec fuse acc = function
    | [] -> List.rev acc
    | (s, k) :: rest -> (
        match acc with
        | (s', k') :: tl when compare s s' = 0 -> fuse ((s', k + k') :: tl) rest
        | _ -> fuse ((s, k) :: acc) rest)
  in
  fuse [] sorted

let run (type c) ?(start_slot = 0) ?(energy = false) ?(observers = [])
    ?(cd = Channel.Strong_cd) ~rng ~n ~(protocol : c protocol) ~adversary ~budget
    ~max_slots () =
  if n < 1 then invalid_arg "Aggregate.run: need n >= 1";
  (* Energy bookkeeping: one [(awake, count)] group per retirement
     event — a class elected at relative slot [r] was awake for the
     [r + 1] slots it participated in. O(#events), independent of n. *)
  let retired = ref [] in
  let obs = Array.of_list observers in
  let observed = Array.length obs > 0 in
  let jammed_slots = ref 0 in
  let nulls = ref 0 and singles = ref 0 and collisions = ref 0 in
  let transmissions = ref 0.0 in
  let slot = ref 0 in
  let population = ref n in
  let leaders = ref 0 in
  let leader_id = ref None in
  let classes = ref [ (protocol.init, n) ] in
  while !population > 0 && !slot < max_slots do
    let t = start_slot + !slot in
    let can_jam = Budget.can_jam budget in
    let jam = can_jam && adversary.Adversary.wants_jam ~slot:t ~can_jam in
    Budget.advance budget ~jam;
    (* Stations in one class share a transmit probability, so the
       class's transmitter count is Binomial(population, p) — a
       sufficient statistic for the slot.  Draws happen in class-sorted
       order, making the stream deterministic. *)
    let counted =
      List.map
        (fun (s, m) ->
          let p = protocol.tx_prob s in
          if not (p >= 0.0 && p <= 1.0) then
            invalid_arg
              "Aggregate.run: protocol emitted a probability outside [0, 1]";
          let tx = Sample.binomial rng ~n:m ~p in
          transmissions := !transmissions +. float_of_int tx;
          (s, m, tx))
        !classes
    in
    let transmitters = List.fold_left (fun acc (_, _, tx) -> acc + tx) 0 counted in
    let state = Channel.resolve ~transmitters ~jammed:jam in
    if jam then incr jammed_slots;
    (match state with
    | Channel.Null -> incr nulls
    | Channel.Single -> incr singles
    | Channel.Collision -> incr collisions);
    (* Each class splits into its transmitting and listening subgroups;
       with collision detection weaker than Strong_cd the two perceive
       the slot differently and may diverge. *)
    let next = ref [] in
    let step_group s ~count ~transmitted =
      if count > 0 then
        match protocol.step s (Channel.perceive cd state ~transmitted) with
        | Continue s' -> next := (s', count) :: !next
        | Elected ->
            population := !population - count;
            if energy then retired := (!slot + 1, count) :: !retired;
            if transmitted then begin
              (* Stations are exchangeable, so when exactly one station
                 elects itself as transmitter its identity is uniform
                 over the ids; sample it only then. *)
              if count = 1 && !leaders = 0 then
                leader_id := Some (Prng.int rng ~bound:n);
              leaders := !leaders + count
            end
    in
    List.iter
      (fun (s, m, tx) ->
        step_group s ~count:tx ~transmitted:true;
        step_group s ~count:(m - tx) ~transmitted:false)
      counted;
    classes := normalise protocol.compare !next;
    adversary.Adversary.notify ~slot:t ~jammed:jam ~state;
    if observed then begin
      let record =
        { Metrics.slot = t; transmitters = Metrics.Exact transmitters; jammed = jam; state }
      in
      Array.iter (fun o -> o.Observer.on_slot record ~leaders:!leaders) obs
    end;
    incr slot
  done;
  let finished = !population = 0 in
  let elected = finished && !leaders = 1 in
  let result =
    {
      Metrics.slots = !slot;
      completed = finished;
      elected;
      leader = (if elected then !leader_id else None);
      statuses = [||];
      jammed_slots = !jammed_slots;
      nulls = !nulls;
      singles = !singles;
      collisions = !collisions;
      transmissions = !transmissions;
      max_station_transmissions = 0;
      energy =
        (if energy then
           Some
             (Jamming_energy.Energy.of_groups ~n ~slots:!slot ~tx_total:!transmissions
                ~groups:((!slot, !population) :: !retired))
         else None);
    }
  in
  Gauges.note_run ~slots:!slot;
  Array.iter (fun o -> o.Observer.on_result result) obs;
  result
