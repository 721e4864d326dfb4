(* The closure-per-station Notification transformation: the test
   suite's differential oracle for [Notification.station] and
   [Notification.pool].  The same Function 4 phase machine, written
   independently: variant phases, one closure bundle per station, a
   boxed instance of [A] per interval restart driven through a uniform
   protocol's logic, and [Intervals.classify] per slot instead of a
   cursor.  Both derived forms must reproduce it bit for bit under
   weak, no and strong CD, lifecycle faults and sensing noise. *)

module Channel = Jamming_channel.Channel
module Station = Jamming_station.Station
module Prng = Jamming_prng.Prng
module Notification = Jamming_core.Notification
module Intervals = Jamming_core.Intervals

(* A restartable, station-side instance of [A], driven on its own
   local slot sequence; built afresh at each interval restart with a
   stream split off the station's generator. *)
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
        let p = logic.Closure.tx_prob () in
        if Prng.bool rng ~p then Station.Transmit else Station.Listen);
    sub_observe =
      (fun ~perceived ~transmitted:_ -> ignore (logic.Closure.on_state perceived));
  }

(* Re-exported so the closure below names the phases unqualified. *)
type phase = Notification.phase =
  | Phase_a1
  | Phase_a2
  | Phase_blocking
  | Phase_announcing
  | Phase_done of Station.status

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

(* [A] given as a pure description, run through its closure form. *)
let of_protocol ?on_phase proto = station ?on_phase (sub_of_uniform (Closure.to_uniform proto))

let lewk ?on_phase ~eps () = of_protocol ?on_phase (Jamming_core.Lesk.protocol ~eps ())
let lewu ?on_phase ?config () = of_protocol ?on_phase (Jamming_core.Lesu.protocol ?config ())
