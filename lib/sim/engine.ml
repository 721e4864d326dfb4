module Channel = Jamming_channel.Channel
module Adversary = Jamming_adversary.Adversary
module Budget = Jamming_adversary.Budget
module Station = Jamming_station.Station
module Injection = Jamming_faults.Injection
module Energy = Jamming_energy.Energy

let make_stations ~n ~rng factory =
  Array.init n (fun id -> factory ~id ~rng:(Jamming_prng.Prng.split rng))

(* Shared epilogue: final statuses, leader identification, result
   construction and observer notification.  [leader = Some _] only when
   the election actually completed with a unique leader; a run cut off
   at [max_slots] reports [leader = None] even if one station happens
   to stand in status Leader. *)
let finalize ~slot ~finished ~statuses ~tx_counts ~jammed_slots ~nulls ~singles
    ~collisions ~energy obs =
  let leader = ref None in
  Array.iteri
    (fun i st -> if Station.equal_status st Station.Leader then leader := Some i)
    statuses;
  let leaders =
    Array.fold_left
      (fun acc st -> if Station.equal_status st Station.Leader then acc + 1 else acc)
      0 statuses
  in
  let elected = finished && leaders = 1 in
  let transmissions = Array.fold_left (fun acc c -> acc + c) 0 tx_counts in
  let result =
    {
      Metrics.slots = slot;
      completed = finished;
      elected;
      leader = (if elected then !leader else None);
      statuses;
      jammed_slots;
      nulls;
      singles;
      collisions;
      transmissions = float_of_int transmissions;
      max_station_transmissions = Array.fold_left Int.max 0 tx_counts;
      energy;
    }
  in
  Gauges.note_run ~slots:slot;
  Array.iter (fun o -> o.Observer.on_result result) obs;
  result

let check_meter ?meter ~n where =
  match meter with
  | Some m when Energy.Meter.n m <> n ->
      invalid_arg (Printf.sprintf "%s: meter size %d <> population %d" where (Energy.Meter.n m) n)
  | Some _ | None -> ()

let run ?(start_slot = 0) ?faults ?meter ?(observers = []) ~cd ~adversary ~budget
    ~max_slots ~stations () =
  let n = Array.length stations in
  check_meter ?meter ~n "Engine.run";
  let obs = Array.of_list observers in
  let observed = Array.length obs > 0 in
  let needs_leaders = Array.exists (fun o -> o.Observer.needs_leaders) obs in
  let actions = Array.make n Station.Listen in
  let tx_counts = Array.make n 0 in
  let jammed_slots = ref 0 in
  let nulls = ref 0 and singles = ref 0 and collisions = ref 0 in
  let noise =
    match faults with Some f when Injection.active f -> Some f | Some _ | None -> None
  in
  (* Absolute slot (exclusive) each station sleeps until; [min_int]
     when awake.  A sleeping station is skipped entirely — no decide,
     no observe, no sensing draw — so with no [Sleep] actions this
     array never fires a branch and the engine is bit-identical to the
     pre-sleep code. *)
  let wake_abs = Array.make n min_int in
  (* Active set: indices of the stations whose [finished] was last seen
     false, kept in increasing station order.  Compaction is
     order-preserving (never swap-remove): [Injection.sense] draws
     sensing noise from one shared stream in station order, so the
     sequence of draws — hence every fault-injected run — must match
     the test suite's O(n) reference engine bit for bit. *)
  let active = Array.init n (fun i -> i) in
  let n_active = ref 0 in
  for i = 0 to n - 1 do
    if not (stations.(i).Station.finished ()) then begin
      active.(!n_active) <- i;
      incr n_active
    end
    else match meter with Some m -> Energy.Meter.note_finish m i ~from:0 | None -> ()
  done;
  (* Incremental leader count: once a station leaves the active set no
     decide/observe call ever reaches it again, so its status is frozen
     and its cached contribution stays valid.  Only stations touched in
     the current slot can change status, so refreshing the count is
     O(active), not O(n). *)
  let cached_status = Array.make (if needs_leaders then n else 0) Station.Undecided in
  let leader_count = ref 0 in
  if needs_leaders then
    Array.iteri
      (fun i s ->
        let st = s.Station.status () in
        cached_status.(i) <- st;
        if Station.equal_status st Station.Leader then incr leader_count)
      stations;
  let slot = ref 0 in
  while !n_active > 0 && !slot < max_slots do
    let t = start_slot + !slot in
    (* 1. Adversary commits before seeing this slot's actions. *)
    let can_jam = Budget.can_jam budget in
    let jam = can_jam && adversary.Adversary.wants_jam ~slot:t ~can_jam in
    Budget.advance budget ~jam;
    (* 2. Live stations act (sleepers are skipped without a draw). *)
    let transmitters = ref 0 in
    for k = 0 to !n_active - 1 do
      let i = active.(k) in
      let s = stations.(i) in
      if s.Station.finished () || wake_abs.(i) > t then actions.(i) <- Station.Listen
      else
        match s.Station.decide ~slot:t with
        | Station.Transmit ->
            actions.(i) <- Station.Transmit;
            incr transmitters;
            tx_counts.(i) <- tx_counts.(i) + 1;
            (match meter with Some m -> Energy.Meter.note_tx m i | None -> ())
        | Station.Listen -> actions.(i) <- Station.Listen
        | Station.Sleep until ->
            if until <= t then
              invalid_arg "Engine.run: Sleep must target a slot after the current one";
            wake_abs.(i) <- until;
            actions.(i) <- Station.Listen;
            (match meter with
            | Some m ->
                Energy.Meter.note_sleep m i ~from:!slot ~until:(until - start_slot)
            | None -> ())
    done;
    (* 3. Resolve and deliver feedback.  Sensing noise, when injected,
       perturbs each live station's view of the true state independently
       (in station order, off a dedicated stream); metrics and the
       adversary always see the truth. *)
    let state = Channel.resolve ~transmitters:!transmitters ~jammed:jam in
    if jam then incr jammed_slots;
    (match state with
    | Channel.Null -> incr nulls
    | Channel.Single -> incr singles
    | Channel.Collision -> incr collisions);
    (* The same pass compacts the active set (order-preserving) and
       folds this slot's status transitions into the leader count: a
       station's [finished]/[status] only change through calls on that
       station, so reading them right after its own [observe] sees the
       same values a separate post-feedback pass would. *)
    let kept = ref 0 in
    for k = 0 to !n_active - 1 do
      let i = active.(k) in
      let s = stations.(i) in
      let asleep = wake_abs.(i) > t in
      if (not asleep) && not (s.Station.finished ()) then begin
        let transmitted = Station.equal_action actions.(i) Station.Transmit in
        let sensed =
          match noise with None -> state | Some inj -> Injection.sense inj state
        in
        let perceived = Channel.perceive cd sensed ~transmitted in
        s.Station.observe ~slot:t ~perceived ~transmitted
      end;
      if needs_leaders then begin
        let st = s.Station.status () in
        if not (Station.equal_status st cached_status.(i)) then begin
          if Station.equal_status cached_status.(i) Station.Leader then decr leader_count;
          if Station.equal_status st Station.Leader then incr leader_count;
          cached_status.(i) <- st
        end
      end;
      if not (s.Station.finished ()) then begin
        active.(!kept) <- i;
        incr kept
      end
      else
        match meter with
        | Some m -> Energy.Meter.note_finish m i ~from:(!slot + 1)
        | None -> ()
    done;
    n_active := !kept;
    adversary.Adversary.notify ~slot:t ~jammed:jam ~state;
    if observed then begin
      let record =
        { Metrics.slot = t; transmitters = Metrics.Exact !transmitters; jammed = jam; state }
      in
      let leaders = if needs_leaders then !leader_count else -1 in
      Array.iter (fun o -> o.Observer.on_slot record ~leaders) obs
    end;
    incr slot
  done;
  let energy =
    match meter with Some m -> Some (Energy.Meter.summarize m ~slots:!slot) | None -> None
  in
  finalize ~slot:!slot ~finished:(!n_active = 0)
    ~statuses:(Array.map (fun s -> s.Station.status ()) stations)
    ~tx_counts ~jammed_slots:!jammed_slots ~nulls:!nulls ~singles:!singles
    ~collisions:!collisions ~energy obs

(* Vectorized engine over a {!Station.pool}.  Protocol state lives in
   flat arrays inside the pool; per slot the engine makes two batch
   calls instead of O(active) closure invocations, and perception is
   computed once per slot (one state for transmitters, one for
   listeners) instead of once per station.  Sleep is managed inside the
   pool (no [Sleep] action ever reaches the engine), so metered runs
   read per-station awake counts back from the pool instead of meter
   events. *)
let run_pool ?(start_slot = 0) ?meter ?(observers = []) ~cd ~adversary ~budget
    ~max_slots ~pool () =
  let n = pool.Station.pool_size in
  check_meter ?meter ~n "Engine.run_pool";
  let obs = Array.of_list observers in
  let observed = Array.length obs > 0 in
  let needs_leaders = Array.exists (fun o -> o.Observer.needs_leaders) obs in
  let actions = Array.make n Station.Listen in
  let tx_counts = Array.make n 0 in
  let jammed_slots = ref 0 in
  let nulls = ref 0 and singles = ref 0 and collisions = ref 0 in
  let slot = ref 0 in
  let finished = ref (pool.Station.pool_all_finished ()) in
  while (not !finished) && !slot < max_slots do
    let t = start_slot + !slot in
    let can_jam = Budget.can_jam budget in
    let jam = can_jam && adversary.Adversary.wants_jam ~slot:t ~can_jam in
    Budget.advance budget ~jam;
    pool.Station.pool_begin_slot ~slot:t;
    let transmitters = pool.Station.pool_decide_all ~slot:t ~actions ~tx_counts in
    let state = Channel.resolve ~transmitters ~jammed:jam in
    if jam then incr jammed_slots;
    (match state with
    | Channel.Null -> incr nulls
    | Channel.Single -> incr singles
    | Channel.Collision -> incr collisions);
    let tx = Channel.perceive cd state ~transmitted:true in
    let rx = Channel.perceive cd state ~transmitted:false in
    pool.Station.pool_observe_all ~slot:t ~actions ~tx ~rx;
    adversary.Adversary.notify ~slot:t ~jammed:jam ~state;
    if observed then begin
      let record =
        { Metrics.slot = t; transmitters = Metrics.Exact transmitters; jammed = jam; state }
      in
      let leaders = if needs_leaders then pool.Station.pool_leaders () else -1 in
      Array.iter (fun o -> o.Observer.on_slot record ~leaders) obs
    end;
    incr slot;
    finished := pool.Station.pool_all_finished ()
  done;
  let statuses = Array.init n pool.Station.pool_status in
  let energy =
    match meter with
    | None -> None
    | Some _ ->
        Some
          (Energy.of_per_station ~n ~slots:!slot
             ~tx:(fun i -> tx_counts.(i))
             ~awake:(fun i -> pool.Station.pool_awake ~until:(start_slot + !slot) i))
  in
  finalize ~slot:!slot ~finished:!finished ~statuses ~tx_counts
    ~jammed_slots:!jammed_slots ~nulls:!nulls ~singles:!singles ~collisions:!collisions
    ~energy obs
