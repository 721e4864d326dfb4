module Channel = Jamming_channel.Channel
module Station = Jamming_station.Station
module Uniform = Jamming_station.Uniform
module Prng = Jamming_prng.Prng

type sub = {
  sub_decide : unit -> Station.action;
  sub_observe : perceived:Channel.state -> transmitted:bool -> unit;
}

type sub_factory = rng:Prng.t -> sub

let sub_of_uniform factory ~rng =
  let logic = factory () in
  {
    sub_decide =
      (fun () ->
        let p = logic.Uniform.tx_prob () in
        if Prng.bool rng ~p then Station.Transmit else Station.Listen);
    sub_observe =
      (fun ~perceived ~transmitted:_ -> ignore (logic.Uniform.on_state perceived));
  }

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

let is_single = Channel.equal_state Channel.Single
let is_null = Channel.equal_state Channel.Null

let station ?on_phase factory ~id ~rng =
  let phase = ref Phase_a1 in
  (* The sub-instance of the current phase, tagged with the generation it
     was started in; restarted fresh at every interval boundary (§3). *)
  let current_sub : (int * sub) option ref = ref None in
  (* [decide] and [observe] are always called with the same slot within a
     slot; [classify] is pure, so one memoized classification serves
     both calls instead of re-deriving the generation bracket twice. *)
  let memo_slot = ref (-1) in
  let memo_class = ref Intervals.Idle in
  let classify slot =
    if slot <> !memo_slot then begin
      memo_class := Intervals.classify slot;
      memo_slot := slot
    end;
    !memo_class
  in
  let transition ~slot next =
    current_sub := None;
    phase := next;
    match on_phase with None -> () | Some f -> f ~id ~slot next
  in
  let sub_for ~generation ~offset =
    match !current_sub with
    | Some (g, s) when g = generation -> Some s
    | _ ->
        if offset = 0 then begin
          let s = factory ~rng:(Prng.split rng) in
          current_sub := Some (generation, s);
          Some s
        end
        else None (* joined mid-interval: sit the rest of it out *)
  in
  let decide ~slot =
    match classify slot, !phase with
    | Intervals.C1 { generation; offset }, Phase_a1
    | Intervals.C2 { generation; offset }, Phase_a2 -> (
        match sub_for ~generation ~offset with
        | Some s -> s.sub_decide ()
        | None -> Station.Listen)
    | Intervals.C1 _, Phase_blocking -> Station.Transmit
    | Intervals.C3 _, Phase_announcing -> Station.Transmit
    | (Intervals.Idle | Intervals.C1 _ | Intervals.C2 _ | Intervals.C3 _), _ ->
        Station.Listen
  in
  let observe ~slot ~perceived ~transmitted =
    match classify slot with
    | Intervals.Idle -> ()
    | Intervals.C1 { generation; _ } -> (
        match !phase with
        | Phase_a1 ->
            (match !current_sub with
            | Some (g, s) when g = generation -> s.sub_observe ~perceived ~transmitted
            | Some _ | None -> ());
            (* A listener hearing the first C1-Single knows it lost. *)
            if is_single perceived && not transmitted then transition ~slot Phase_a2
        | Phase_announcing ->
            (* Blockers keep C1 busy; once they are gone the first
               non-jammed C1 slot is Null and the leader may terminate. *)
            if is_null perceived then transition ~slot (Phase_done Station.Leader)
        | Phase_a2 | Phase_blocking | Phase_done _ -> ())
    | Intervals.C2 { generation; _ } -> (
        match !phase with
        | Phase_a1 ->
            (* Only the C1-Single transmitter can still be here when a
               C2-Single occurs: it just learnt it is the leader. *)
            if is_single perceived && not transmitted then
              transition ~slot Phase_announcing
        | Phase_a2 ->
            (match !current_sub with
            | Some (g, s) when g = generation -> s.sub_observe ~perceived ~transmitted
            | Some _ | None -> ());
            if is_single perceived && not transmitted then
              transition ~slot Phase_blocking
        | Phase_blocking | Phase_announcing | Phase_done _ -> ())
    | Intervals.C3 _ -> (
        match !phase with
        | Phase_a2 | Phase_blocking ->
            (* Only the leader transmits in C3: its Single is the
               termination signal for every non-leader. *)
            if is_single perceived && not transmitted then
              transition ~slot (Phase_done Station.Non_leader)
        | Phase_a1 | Phase_announcing | Phase_done _ -> ())
  in
  let status () =
    match !phase with
    | Phase_a1 -> Station.Undecided
    | Phase_a2 | Phase_blocking -> Station.Non_leader
    | Phase_announcing -> Station.Leader
    | Phase_done st -> st
  in
  let finished () = match !phase with Phase_done _ -> true | _ -> false in
  { Station.id; decide; observe; status; finished }

(* ------------------------------------------------------------------ *)
(* Flat station pool: the whole population's Notification state in     *)
(* struct-of-arrays form, driven through {!Station.pool}.  The closure *)
(* [station] above is kept verbatim as the differential oracle; the    *)
(* pool reproduces its random streams bit for bit (same split points,  *)
(* same draw counts), asserted in test_notification.ml.                *)
(* ------------------------------------------------------------------ *)

type subpool = {
  sp_reset : int -> unit;
  sp_tx_prob : int -> float;
  sp_on_state : int -> Channel.state -> unit;
}

type flat_sub = {
  fs_name : string;
  fs_make : n:int -> subpool;
}

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

let pool ?on_phase (fsub : flat_sub) : Station.pool_factory =
 fun ~n ~rng ->
  if n < 0 then invalid_arg "Notification.pool: n must be >= 0";
  (* One private stream per station, split in the same order as
     [Engine.make_stations] so pooled runs share the closure path's
     streams bit for bit. *)
  let st_rng = Array.init n (fun _ -> Prng.split rng) in
  let sub_rng = Array.make n (Prng.create ~seed:0) in
  let phase = Array.make n ph_a1 in
  (* Generation whose sub-instance station [i] currently holds; -1 when
     none.  Cleared at every phase transition, exactly as the closure
     path clears [current_sub]. *)
  let sub_gen = Array.make n (-1) in
  let sp = fsub.fs_make ~n in
  let active = Array.init n (fun i -> i) in
  let n_active = ref n in
  let n_done = ref 0 in
  let n_leaders = ref 0 in
  (* Active stations still in A1.  While EVERY active station is in A1,
     slots outside C1 are population-wide no-ops — A1 stations neither
     draw nor observe their sub there, and the only transition out of
     A1 needs a Single perceived by a listener, impossible with zero
     transmitters — so the batch entry points skip the scan
     entirely. *)
  let n_a1 = ref n in
  (* Energy bookkeeping: notification stations never sleep, so station
     [i] is awake from the first slot the pool sees until it finishes
     (inclusive of the finishing slot). *)
  let first_slot = ref min_int in
  let finish_at = Array.make n max_int in
  (* Slot classification, computed once per slot for the population. *)
  let cur = Intervals.cursor () in
  let cur_kind = ref Intervals.kind_idle in
  let cur_gen = ref 0 in
  let cur_off = ref 0 in
  let begin_slot ~slot =
    if !first_slot = min_int then first_slot := slot;
    Intervals.locate cur slot;
    cur_kind := Intervals.kind cur;
    cur_gen := Intervals.generation cur;
    cur_off := Intervals.offset cur
  in
  let transition ~slot i next =
    let old = phase.(i) in
    if old = ph_a1 then decr n_a1;
    if old = ph_announcing then decr n_leaders;
    if next = ph_announcing || next = ph_done_leader then incr n_leaders;
    if next >= ph_done_leader then begin
      incr n_done;
      finish_at.(i) <- slot
    end;
    phase.(i) <- next;
    sub_gen.(i) <- -1;
    match on_phase with None -> () | Some f -> f ~id:i ~slot (phase_of_code next)
  in
  (* Mirrors [sub_for]: reuse the sub started this generation, start a
     fresh one (fresh stream split off the station's generator) only at
     offset 0, otherwise sit the interval out. *)
  let ensure_sub i =
    if sub_gen.(i) = !cur_gen then true
    else if !cur_off = 0 then begin
      sub_rng.(i) <- Prng.split st_rng.(i);
      sp.sp_reset i;
      sub_gen.(i) <- !cur_gen;
      true
    end
    else false
  in
  let draw i =
    let p = sp.sp_tx_prob i in
    if Prng.bool sub_rng.(i) ~p then Station.Transmit else Station.Listen
  in
  let decide_i i =
    let k = !cur_kind in
    let ph = phase.(i) in
    if (k = Intervals.kind_c1 && ph = ph_a1) || (k = Intervals.kind_c2 && ph = ph_a2)
    then (if ensure_sub i then draw i else Station.Listen)
    else if
      (k = Intervals.kind_c1 && ph = ph_blocking)
      || (k = Intervals.kind_c3 && ph = ph_announcing)
    then Station.Transmit
    else Station.Listen
  in
  let observe_i ~slot ~perceived ~transmitted i =
    let k = !cur_kind in
    if k = Intervals.kind_c1 then begin
      let ph = phase.(i) in
      if ph = ph_a1 then begin
        if sub_gen.(i) = !cur_gen then sp.sp_on_state i perceived;
        if is_single perceived && not transmitted then transition ~slot i ph_a2
      end
      else if ph = ph_announcing then begin
        if is_null perceived then transition ~slot i ph_done_leader
      end
    end
    else if k = Intervals.kind_c2 then begin
      let ph = phase.(i) in
      if ph = ph_a1 then begin
        if is_single perceived && not transmitted then transition ~slot i ph_announcing
      end
      else if ph = ph_a2 then begin
        if sub_gen.(i) = !cur_gen then sp.sp_on_state i perceived;
        if is_single perceived && not transmitted then transition ~slot i ph_blocking
      end
    end
    else if k = Intervals.kind_c3 then begin
      let ph = phase.(i) in
      if ph = ph_a2 || ph = ph_blocking then
        if is_single perceived && not transmitted then
          transition ~slot i ph_done_nonleader
    end
  in
  (* Stable within a slot: [cur_kind] only moves in [begin_slot] and
     phases only move in the observe pass, so decide and observe of one
     slot always agree on whether it is skippable. *)
  let all_a1_noop () = !cur_kind <> Intervals.kind_c1 && !n_a1 = !n_active in
  let pool_decide_all ~slot:_ ~actions ~tx_counts =
    if all_a1_noop () then 0
    else begin
      let txs = ref 0 in
      for k = 0 to !n_active - 1 do
        let i = active.(k) in
        let a = decide_i i in
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
        observe_i ~slot ~perceived ~transmitted i;
        if phase.(i) < ph_done_leader then begin
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
    pool_status =
      (fun i ->
        let ph = phase.(i) in
        if ph = ph_a1 then Station.Undecided
        else if ph = ph_a2 || ph = ph_blocking || ph = ph_done_nonleader then
          Station.Non_leader
        else Station.Leader);
    pool_all_finished = (fun () -> !n_done = n);
    pool_leaders = (fun () -> !n_leaders);
    pool_awake =
      (fun ~until i ->
        if !first_slot = min_int then 0
        else
          let stop =
            if finish_at.(i) = max_int then until else Int.min until (finish_at.(i) + 1)
          in
          Int.max 0 (stop - !first_slot));
  }
