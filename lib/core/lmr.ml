module Channel = Jamming_channel.Channel
module Station = Jamming_station.Station
module Prng = Jamming_prng.Prng

let tie_rounds = 16

let bits n =
  let rec go acc v = if v = 0 then acc else go (acc + 1) (v lsr 1) in
  go 0 n

let rounds ~n =
  if n < 1 then invalid_arg "Lmr.rounds: need n >= 1";
  Int.max 2 (bits n + 4)

let search_slots ~n =
  let rec go s steps = if s <= 1 then steps else go ((s + 1) / 2) (steps + 1) in
  go (rounds ~n) 0

let awake_bound ~n = search_slots ~n + tie_rounds + 2

(* One uniform draw yields the whole geometric level: P[level = k] =
   2^-k, read off the binary expansion of [u] by repeated doubling.
   Capped at [rounds] so the search range is closed. *)
let draw_level rng ~rounds =
  let u = Prng.float rng in
  let rec go level u =
    if level >= rounds then rounds
    else if u < 0.5 then go (level + 1) (2.0 *. u)
    else level
  in
  go 1 u

(* Per-station protocol state.  The closure factory owns one record per
   station; the pool owns an array of them — both drive the same
   [decide_one]/[observe_one] transitions over the station's private
   stream, which is what makes the two paths bit-identical. *)
type phase =
  | Start  (* draw a fresh level at the next decide *)
  | Search  (* binary search for the population's maximum level *)
  | Tie  (* knockout tournament among the max-level contenders *)
  | Done

type state = {
  mutable phase : phase;
  mutable level : int;
  mutable lo : int;
  mutable hi : int;
  mutable mid : int;  (* probe threshold pending between decide and observe *)
  mutable active : bool;  (* still standing in the tournament *)
  mutable tentative : bool;  (* crowned by a tie-slot Single *)
  mutable announce_at : int;  (* absolute slot of the announcement *)
  mutable status : Station.status;
}

let fresh_state () =
  {
    phase = Start;
    level = 0;
    lo = 0;
    hi = 0;
    mid = 0;
    active = false;
    tentative = false;
    announce_at = 0;
    status = Station.Undecided;
  }

let search_decide st =
  st.mid <- (st.lo + st.hi + 1) / 2;
  if st.level >= st.mid then Station.Transmit else Station.Listen

let decide_one st ~rng ~rounds ~slot =
  match st.phase with
  | Start ->
      st.level <- draw_level rng ~rounds;
      st.lo <- 1;
      st.hi <- rounds;
      st.phase <- Search;
      search_decide st
  | Search -> search_decide st
  | Tie ->
      if slot = st.announce_at then
        if st.tentative then Station.Transmit else Station.Listen
      else if st.tentative || not st.active then Station.Sleep st.announce_at
      else if Prng.bool rng ~p:0.5 then Station.Transmit
      else Station.Listen
  | Done -> Station.Listen (* engine never decides a finished station *)

let observe_one st ~slot ~perceived ~transmitted =
  match st.phase with
  | Search ->
      (match perceived with
      | Channel.Null -> st.hi <- st.mid - 1
      | Channel.Single | Channel.Collision -> st.lo <- st.mid);
      if st.lo >= st.hi then begin
        (* Search closed on the threshold estimate m' = lo: stations at
           level >= m' contend; everyone else powers down until the
           announcement. *)
        st.phase <- Tie;
        st.active <- st.level >= st.lo;
        st.tentative <- false;
        st.announce_at <- slot + 1 + tie_rounds
      end
  | Tie ->
      if slot = st.announce_at then (
        match perceived with
        | Channel.Single ->
            st.status <- (if transmitted then Station.Leader else Station.Non_leader);
            st.phase <- Done
        | Channel.Null | Channel.Collision -> st.phase <- Start)
      else (
        match perceived with
        | Channel.Single ->
            (* Exactly one contender transmitted alone: it is crowned
               tentative leader, every listener drops out.  At most one
               tentative per cycle — after the crowning nobody active
               remains, so no later tie Single can occur. *)
            if transmitted then st.tentative <- true else st.active <- false
        | Channel.Collision -> if not transmitted then st.active <- false
        | Channel.Null -> ())
  | Start | Done -> () (* only reachable under lifecycle faults; ignore *)

let name = "LMR"

let station ~n =
  let r = rounds ~n in
  fun ~id ~rng ->
    let st = fresh_state () in
    {
      Station.id;
      decide = (fun ~slot -> decide_one st ~rng ~rounds:r ~slot);
      observe =
        (fun ~slot ~perceived ~transmitted -> observe_one st ~slot ~perceived ~transmitted);
      status = (fun () -> st.status);
      finished = (fun () -> match st.phase with Done -> true | _ -> false);
    }

let pool : Station.pool_factory =
 fun ~n ~rng ->
  if n < 1 then invalid_arg "Lmr.pool: need n >= 1";
  let r = rounds ~n in
  (* Same split order as [Engine.make_stations], so each station's
     private stream is bit-identical to its closure twin's. *)
  let rngs = Array.init n (fun _ -> Prng.split rng) in
  let sts = Array.init n (fun _ -> fresh_state ()) in
  let awake = Array.make n 0 in
  let wake_abs = Array.make n min_int in
  let alive = Array.init n Fun.id in
  let n_alive = ref n in
  let leaders = ref 0 in
  let finished_count = ref 0 in
  {
    Station.pool_size = n;
    pool_begin_slot = (fun ~slot:_ -> ());
    pool_decide_all =
      (fun ~slot ~actions ~tx_counts ->
        let transmitters = ref 0 in
        for k = 0 to !n_alive - 1 do
          let i = alive.(k) in
          if wake_abs.(i) > slot then actions.(i) <- Station.Listen
          else
            match decide_one sts.(i) ~rng:rngs.(i) ~rounds:r ~slot with
            | Station.Transmit ->
                actions.(i) <- Station.Transmit;
                tx_counts.(i) <- tx_counts.(i) + 1;
                awake.(i) <- awake.(i) + 1;
                incr transmitters
            | Station.Listen ->
                actions.(i) <- Station.Listen;
                awake.(i) <- awake.(i) + 1
            | Station.Sleep until ->
                if until <= slot then
                  invalid_arg "Lmr.pool: Sleep must target a slot after the current one";
                (* Sleep is absorbed here: the batch engine never sees
                   it, and this slot does not count as awake. *)
                wake_abs.(i) <- until;
                actions.(i) <- Station.Listen
        done;
        !transmitters);
    pool_observe_all =
      (fun ~slot ~actions ~tx ~rx ->
        let k = ref 0 in
        while !k < !n_alive do
          let i = alive.(!k) in
          if wake_abs.(i) > slot then incr k
          else begin
            let transmitted =
              match actions.(i) with Station.Transmit -> true | _ -> false
            in
            let st = sts.(i) in
            observe_one st ~slot ~perceived:(if transmitted then tx else rx) ~transmitted;
            match st.phase with
            | Done ->
                incr finished_count;
                if Station.equal_status st.status Station.Leader then incr leaders;
                alive.(!k) <- alive.(!n_alive - 1);
                decr n_alive
            | Start | Search | Tie -> incr k
          end
        done);
    pool_status = (fun i -> sts.(i).status);
    pool_all_finished = (fun () -> !finished_count = n);
    pool_leaders = (fun () -> !leaders);
    pool_awake = (fun ~until:_ i -> awake.(i));
  }
