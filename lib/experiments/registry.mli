(** The experiment registry: one entry per table/figure of
    EXPERIMENTS.md (E1–E17, F1–F2 and the ablations A1–A9). *)

type scale =
  | Quick  (** seconds-scale parameters, the [sweep] default *)
  | Full  (** the EXPERIMENTS.md parameters (minutes-scale) *)

type t = {
  id : string;  (** e.g. "E1" *)
  name : string;  (** [sweep] target name, e.g. "lesk-scaling-n" *)
  claim : string;  (** the paper statement being checked *)
  run : scale -> Output.t -> unit;
}

val pp_header : Format.formatter -> t -> unit
(** Standard banner printed before an experiment's tables. *)
