type action = Transmit | Listen | Sleep of int

let equal_action a b =
  match a, b with
  | Transmit, Transmit | Listen, Listen -> true
  | Sleep u, Sleep v -> u = v
  | (Transmit | Listen | Sleep _), _ -> false

let pp_action ppf = function
  | Transmit -> Format.pp_print_string ppf "Transmit"
  | Listen -> Format.pp_print_string ppf "Listen"
  | Sleep until -> Format.fprintf ppf "Sleep(until=%d)" until

type status = Undecided | Leader | Non_leader

let equal_status a b =
  match a, b with
  | Undecided, Undecided | Leader, Leader | Non_leader, Non_leader -> true
  | (Undecided | Leader | Non_leader), _ -> false

let status_to_string = function
  | Undecided -> "undecided"
  | Leader -> "leader"
  | Non_leader -> "non-leader"

let pp_status ppf st = Format.pp_print_string ppf (status_to_string st)

type t = {
  id : int;
  decide : slot:int -> action;
  observe : slot:int -> perceived:Jamming_channel.Channel.state -> transmitted:bool -> unit;
  status : unit -> status;
  finished : unit -> bool;
}

type factory = id:int -> rng:Jamming_prng.Prng.t -> t

type pool = {
  pool_size : int;
  pool_begin_slot : slot:int -> unit;
  pool_decide_all : slot:int -> actions:action array -> tx_counts:int array -> int;
  pool_observe_all :
    slot:int ->
    actions:action array ->
    tx:Jamming_channel.Channel.state ->
    rx:Jamming_channel.Channel.state ->
    unit;
  pool_status : int -> status;
  pool_all_finished : unit -> bool;
  pool_leaders : unit -> int;
  pool_awake : until:int -> int -> int;
}

type pool_factory = n:int -> rng:Jamming_prng.Prng.t -> pool
