module Channel = Jamming_channel.Channel
module Station = Jamming_station.Station
module Prng = Jamming_prng.Prng
module Aggregate = Jamming_sim.Aggregate

type phase =
  | Phase_a1
  | Phase_a2
  | Phase_blocking
  | Phase_announcing
  | Phase_done of Station.status

let pp_phase ppf = function
  | Phase_a1 -> Format.pp_print_string ppf "A1"
  | Phase_a2 -> Format.pp_print_string ppf "A2"
  | Phase_blocking -> Format.pp_print_string ppf "blocking"
  | Phase_announcing -> Format.pp_print_string ppf "announcing"
  | Phase_done st -> Format.fprintf ppf "done(%a)" Station.pp_status st

(* Phase encoding for the flat arrays; [>= ph_done_leader] = finished. *)
let ph_a1 = 0
let ph_a2 = 1
let ph_blocking = 2
let ph_announcing = 3
let ph_done_leader = 4
let ph_done_nonleader = 5

let phase_of_code = function
  | 0 -> Phase_a1
  | 1 -> Phase_a2
  | 2 -> Phase_blocking
  | 3 -> Phase_announcing
  | 4 -> Phase_done Station.Leader
  | _ -> Phase_done Station.Non_leader

let status_of_code ph =
  if ph = ph_a1 then Station.Undecided
  else if ph = ph_a2 || ph = ph_blocking || ph = ph_done_nonleader then Station.Non_leader
  else Station.Leader

let is_single = Channel.equal_state Channel.Single
let is_null = Channel.equal_state Channel.Null

(* ------------------------------------------------------------------ *)
(* The phase machine of Function 4 for stations [0 .. n-1], state in   *)
(* flat arrays.  It is written once: [pool] drives it for a whole      *)
(* population, [station] for one station.                              *)
(* ------------------------------------------------------------------ *)

(* One transition memo entry per perceived state: the tag last stepped
   on it, the tag it led to (-1 for [Elected]), and that successor with
   its transmission probability. *)
type 'c entry = {
  mutable from : int;
  mutable dest : int;
  mutable next : 'c;
  mutable next_p : float;
}

type 'c machine = {
  proto : 'c Aggregate.protocol;
  init_p : float;  (* [proto.tx_prob proto.init] *)
  st_rng : Prng.t array;  (* station [i]'s private generator *)
  sub_rng : Prng.t array;  (* stream of station [i]'s current sub-instance *)
  sub : 'c array;  (* state of station [i]'s sub-instance *)
  sub_p : float array;  (* its transmission probability *)
  sub_tag : int array;
      (* Which memo entry produced [sub.(i)]: 0 for [init], -1 once [step]
         returned [Elected], after which the instance is frozen with its
         last state.  Equal tags mean one shared state. *)
  memo : 'c entry array;  (* indexed by [entry_of] the perceived state *)
  mutable last_tag : int;
  phase : int array;
  sub_gen : int array;
      (* Generation whose sub-instance station [i] currently holds; -1
         when none.  Cleared at every phase transition, so [A] restarts
         fresh (§3). *)
  finish_at : int array;  (* slot station [i] finished in; [max_int] while running *)
  cur : Intervals.cursor;
  mutable kind : int;  (* class, generation and offset of the located slot *)
  mutable gen : int;
  mutable off : int;
  mutable n_a1 : int;
  mutable n_done : int;
  mutable n_leaders : int;
  first_id : int;  (* station [i] reports itself to [on_phase] as [first_id + i] *)
  on_phase : (id:int -> slot:int -> phase -> unit) option;
}

let entry_of = function Channel.Null -> 0 | Channel.Single -> 1 | Channel.Collision -> 2

let machine ?on_phase ~first_id proto st_rng =
  let n = Array.length st_rng in
  let init_p = proto.Aggregate.tx_prob proto.init in
  {
    proto;
    init_p;
    st_rng;
    sub_rng = Array.make n (Prng.create ~seed:0);
    sub = Array.make n proto.init;
    sub_p = Array.make n init_p;
    sub_tag = Array.make n 0;
    memo = Array.init 3 (fun _ -> { from = -1; dest = -1; next = proto.init; next_p = init_p });
    last_tag = 0;
    phase = Array.make n ph_a1;
    sub_gen = Array.make n (-1);
    finish_at = Array.make n max_int;
    cur = Intervals.cursor ();
    kind = Intervals.kind_idle;
    gen = 0;
    off = 0;
    n_a1 = n;
    n_done = 0;
    n_leaders = 0;
    first_id;
    on_phase;
  }

let locate m slot =
  Intervals.locate m.cur slot;
  m.kind <- Intervals.kind m.cur;
  m.gen <- Intervals.generation m.cur;
  m.off <- Intervals.offset m.cur

let transition m ~slot i next =
  let old = m.phase.(i) in
  if old = ph_a1 then m.n_a1 <- m.n_a1 - 1;
  if old = ph_announcing then m.n_leaders <- m.n_leaders - 1;
  if next = ph_announcing || next = ph_done_leader then m.n_leaders <- m.n_leaders + 1;
  if next >= ph_done_leader then begin
    m.n_done <- m.n_done + 1;
    m.finish_at.(i) <- slot
  end;
  m.phase.(i) <- next;
  m.sub_gen.(i) <- -1;
  match m.on_phase with
  | None -> ()
  | Some f -> f ~id:(m.first_id + i) ~slot (phase_of_code next)

(* Reuse the sub-instance started this generation; start a fresh one,
   on a stream split off the station's generator, only at offset 0.
   A station that joined mid-interval sits the rest of it out. *)
let ensure_sub m i =
  if m.sub_gen.(i) = m.gen then true
  else if m.off = 0 then begin
    m.sub_rng.(i) <- Prng.split m.st_rng.(i);
    m.sub.(i) <- m.proto.init;
    m.sub_p.(i) <- m.init_p;
    m.sub_tag.(i) <- 0;
    m.sub_gen.(i) <- m.gen;
    true
  end
  else false

(* Feed station [i]'s sub-instance one perceived state.  [step] is pure
   and equal tags hold one state, so (tag, perceived state) determines
   the successor: stations in lockstep pay one [step] and one [tx_prob]
   between them, and a station the memo has not seen steps its own. *)
let step_sub m i perceived =
  let t = m.sub_tag.(i) in
  if t >= 0 then begin
    let e = m.memo.(entry_of perceived) in
    if e.from <> t then begin
      (match m.proto.step m.sub.(i) perceived with
      | Aggregate.Continue s ->
          m.last_tag <- m.last_tag + 1;
          e.dest <- m.last_tag;
          e.next <- s;
          e.next_p <- m.proto.tx_prob s
      | Aggregate.Elected -> e.dest <- -1);
      e.from <- t
    end;
    m.sub_tag.(i) <- e.dest;
    if e.dest >= 0 then begin
      m.sub.(i) <- e.next;
      m.sub_p.(i) <- e.next_p
    end
  end

let decide m i =
  let k = m.kind in
  let ph = m.phase.(i) in
  if (k = Intervals.kind_c1 && ph = ph_a1) || (k = Intervals.kind_c2 && ph = ph_a2) then
    if ensure_sub m i then
      if Prng.bool m.sub_rng.(i) ~p:m.sub_p.(i) then Station.Transmit else Station.Listen
    else Station.Listen
  else if
    (k = Intervals.kind_c1 && ph = ph_blocking) || (k = Intervals.kind_c3 && ph = ph_announcing)
  then Station.Transmit
  else Station.Listen

let observe m ~slot ~perceived ~transmitted i =
  let k = m.kind in
  if k = Intervals.kind_c1 then begin
    let ph = m.phase.(i) in
    if ph = ph_a1 then begin
      if m.sub_gen.(i) = m.gen then step_sub m i perceived;
      (* A listener hearing the first C1-Single knows it lost. *)
      if is_single perceived && not transmitted then transition m ~slot i ph_a2
    end
    else if ph = ph_announcing then begin
      (* Blockers keep C1 busy; once they are gone the first non-jammed
         C1 slot is Null and the leader may terminate. *)
      if is_null perceived then transition m ~slot i ph_done_leader
    end
  end
  else if k = Intervals.kind_c2 then begin
    let ph = m.phase.(i) in
    if ph = ph_a1 then begin
      (* Only the C1-Single transmitter can still be here when a
         C2-Single occurs: it just learnt it is the leader. *)
      if is_single perceived && not transmitted then transition m ~slot i ph_announcing
    end
    else if ph = ph_a2 then begin
      if m.sub_gen.(i) = m.gen then step_sub m i perceived;
      if is_single perceived && not transmitted then transition m ~slot i ph_blocking
    end
  end
  else if k = Intervals.kind_c3 then begin
    let ph = m.phase.(i) in
    (* Only the leader transmits in C3: its Single is the termination
       signal for every non-leader. *)
    if ph = ph_a2 || ph = ph_blocking then
      if is_single perceived && not transmitted then transition m ~slot i ph_done_nonleader
  end

(* One station is the machine at n = 1 on the station's own generator.
   Each call locates its own slot: a station wrapped in lifecycle
   faults is not called while it sleeps, and the [Station.t] contract
   does not promise a [decide] before every [observe]. *)
let station ?on_phase proto ~id ~rng =
  let m = machine ?on_phase ~first_id:id proto [| rng |] in
  {
    Station.id;
    decide =
      (fun ~slot ->
        locate m slot;
        decide m 0);
    observe =
      (fun ~slot ~perceived ~transmitted ->
        locate m slot;
        observe m ~slot ~perceived ~transmitted 0);
    status = (fun () -> status_of_code m.phase.(0));
    finished = (fun () -> m.phase.(0) >= ph_done_leader);
  }

let pool ?on_phase proto : Station.pool_factory =
 fun ~n ~rng ->
  if n < 0 then invalid_arg "Notification.pool: n must be >= 0";
  (* One private stream per station, split in the same order as
     [Engine.make_stations] so pooled runs share the station path's
     streams bit for bit. *)
  let m = machine ?on_phase ~first_id:0 proto (Array.init n (fun _ -> Prng.split rng)) in
  let active = Array.init n (fun i -> i) in
  let n_active = ref n in
  (* Energy bookkeeping: notification stations never sleep, so station
     [i] is awake from the first slot the pool sees until it finishes
     (inclusive of the finishing slot). *)
  let first_slot = ref min_int in
  let begin_slot ~slot =
    if !first_slot = min_int then first_slot := slot;
    locate m slot
  in
  (* While EVERY active station is in A1, slots outside C1 are
     population-wide no-ops — A1 stations neither draw nor observe their
     sub there, and the only transition out of A1 needs a Single
     perceived by a listener, impossible with zero transmitters — so the
     batch entry points skip the scan entirely.  Stable within a slot:
     [m.kind] only moves in [begin_slot] and phases only move in the
     observe pass, so decide and observe of one slot always agree on
     whether it is skippable. *)
  let all_a1_noop () = m.kind <> Intervals.kind_c1 && m.n_a1 = !n_active in
  let pool_decide_all ~slot:_ ~actions ~tx_counts =
    if all_a1_noop () then 0
    else begin
      let txs = ref 0 in
      for k = 0 to !n_active - 1 do
        let i = active.(k) in
        let a = decide m i in
        actions.(i) <- a;
        match a with
        | Station.Transmit ->
            incr txs;
            tx_counts.(i) <- tx_counts.(i) + 1
        | Station.Listen | Station.Sleep _ -> ()
      done;
      !txs
    end
  in
  let pool_observe_all ~slot ~actions ~tx ~rx =
    if all_a1_noop () then ()
    else begin
      let kept = ref 0 in
      for k = 0 to !n_active - 1 do
        let i = active.(k) in
        let transmitted =
          match actions.(i) with
          | Station.Transmit -> true
          | Station.Listen | Station.Sleep _ -> false
        in
        let perceived = if transmitted then tx else rx in
        observe m ~slot ~perceived ~transmitted i;
        if m.phase.(i) < ph_done_leader then begin
          active.(!kept) <- i;
          incr kept
        end
      done;
      n_active := !kept
    end
  in
  {
    Station.pool_size = n;
    pool_begin_slot = begin_slot;
    pool_decide_all;
    pool_observe_all;
    pool_status = (fun i -> status_of_code m.phase.(i));
    pool_all_finished = (fun () -> m.n_done = n);
    pool_leaders = (fun () -> m.n_leaders);
    pool_awake =
      (fun ~until i ->
        if !first_slot = min_int then 0
        else
          let stop =
            if m.finish_at.(i) = max_int then until else Int.min until (m.finish_at.(i) + 1)
          in
          Int.max 0 (stop - !first_slot));
  }
