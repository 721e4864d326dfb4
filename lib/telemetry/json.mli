(** A minimal JSON representation, writer, and parser.

    Deliberately tiny and dependency-free: just enough to persist
    telemetry snapshots, run-store samples and experiment summaries
    ([sweep --json-out]), and to read them back.
    Output is deterministic: object fields are emitted in the order
    given, floats print via a stable shortest value-exact format
    ([%.12g] widened to [%.15g]/[%.17g] only when needed to round-trip,
    integral values as [x.0]), and non-finite floats become [null] —
    so every finite float parses back bit-identically. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact single-line rendering (JSONL-safe: no embedded newlines). *)

val pp : Format.formatter -> t -> unit
(** Human-oriented rendering with two-space indentation. *)

val to_channel : out_channel -> t -> unit
(** [pp] to a channel, with a trailing newline. *)

val write_file : path:string -> t -> unit
(** Pretty-print to [path] (created or truncated). *)

val write_line : out_channel -> t -> unit
(** One compact line + ['\n'] — the JSONL record format. *)

(** {1 Reading} *)

val of_string : string -> (t, string) result
(** Parse one JSON value (standard JSON; numbers without ['.'], ['e']
    that fit an OCaml [int] load as [Int], everything else as [Float]).
    Errors carry a character offset and a short description. *)

val read_file : path:string -> (t, string) result

(** {1 Accessors} *)

val member : string -> t -> t option
(** Field lookup in an [Obj]; [None] on missing field or non-object. *)

val to_float_opt : t -> float option
(** [Int] and [Float] both coerce; everything else is [None]. *)

val to_int_opt : t -> int option
val to_string_opt : t -> string option
val to_list_opt : t -> t list option
