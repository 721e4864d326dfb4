module Channel = Jamming_channel.Channel
module Uniform = Jamming_station.Uniform
module Aggregate = Jamming_sim.Aggregate

let config_valid ~eps = eps > 0.0 && eps <= 1.0

(* The one parameter check every LESK form goes through: [eps] in
   (0, 1] and the collision step denominator [a] (default the paper's
   [8/ε]) at least 1.  Returns [a]; [where] names the caller in the
   error message. *)
let step_denominator ~where ?a ~eps () =
  if not (config_valid ~eps) then invalid_arg (where ^ ": eps must lie in (0, 1]");
  let a = match a with Some v -> v | None -> 8.0 /. eps in
  if not (a >= 1.0) then invalid_arg (where ^ ": a must be >= 1");
  a

let tx_prob u = Float.exp2 (-.u)

(* Every other LESK form (the [Logic] machine, the uniform driver, the
   closure stations, the aggregate description, LESU's ladder) steps
   through this one function, so their [u] trajectories agree bit for
   bit. *)
let step ~a u = function
  | Channel.Null -> Aggregate.Continue (Float.max (u -. 1.0) 0.0)
  | Channel.Collision -> Aggregate.Continue (u +. (1.0 /. a))
  | Channel.Single -> Aggregate.Elected

let protocol ?a ~eps () =
  let a = step_denominator ~where:"Lesk.protocol" ?a ~eps () in
  {
    Aggregate.name = Printf.sprintf "LESK(eps=%.3g)" eps;
    init = 0.0;
    tx_prob;
    step = step ~a;
    compare = Float.compare;
  }

module Logic = struct
  type t = { eps : float; a : float; mutable u : float; mutable elected : bool }

  let create ?(initial_u = 0.0) ?a ~eps () =
    let a = step_denominator ~where:"Lesk.Logic.create" ?a ~eps () in
    if initial_u < 0.0 then invalid_arg "Lesk.Logic.create: initial_u must be >= 0";
    { eps; a; u = initial_u; elected = false }

  let eps t = t.eps
  let a t = t.a
  let u t = t.u
  let tx_prob t = tx_prob t.u
  let elected t = t.elected

  let on_state t state =
    match step ~a:t.a t.u state with
    | Aggregate.Continue u -> t.u <- u
    | Aggregate.Elected -> t.elected <- true
end

let uniform ?a ~eps () = Aggregate.to_uniform (protocol ?a ~eps ()) ()
let station ~eps = Uniform.distributed (Aggregate.to_uniform (protocol ~eps ()))
let aggregate ?a ~eps () = Aggregate.Packed (protocol ?a ~eps ())

(* [step] in population form for Notification's machine (its pool and
   its stations), hand-specialised because it is the weak-CD hot path:
   the estimate [u] of every station in one float array.  Float updates
   mirror [step] operation for operation; the transmission probability
   is cached per station and recomputed — with the same
   [Float.exp2 (-.u)] expression [tx_prob] uses — only when [u]
   changes, so the cached value stays bit-identical to a fresh
   computation (skipping the recompute when the update left [u]
   unchanged, e.g. Null at u = 0, is sound for the same reason).  A
   Single leaves [u] alone and is not tracked: under weak or no CD only
   listeners perceive a Single, which drops their sub on the same slot,
   so nothing reads the state after it.  Pinned bitwise against [Logic]
   in test_notification.ml. *)
let flat_sub ?a ~eps () =
  let a = step_denominator ~where:"Lesk.flat_sub" ?a ~eps () in
  {
    Notification.fs_name = Printf.sprintf "LESK(eps=%.3g)" eps;
    fs_make =
      (fun ~n ->
        let u = Array.make n 0.0 in
        let p = Array.make n 1.0 in
        (* Station estimates move in lockstep except around Singles, so
           one memo entry serves nearly every station on a jammed slot;
           [exp2] is pure, so the memoized float is the bit a fresh
           computation would give. *)
        let memo_u = ref Float.nan and memo_p = ref 0.0 in
        let exp2m v =
          if v = !memo_u then !memo_p
          else begin
            let r = Float.exp2 (-.v) in
            memo_u := v;
            memo_p := r;
            r
          end
        in
        {
          Notification.sp_reset =
            (fun i ->
              u.(i) <- 0.0;
              p.(i) <- exp2m 0.0);
          sp_tx_prob = (fun i -> p.(i));
          sp_on_state =
            (fun i state ->
              match state with
              | Channel.Null ->
                  let u' = Float.max (u.(i) -. 1.0) 0.0 in
                  if u' <> u.(i) then begin
                    u.(i) <- u';
                    p.(i) <- exp2m u'
                  end
              | Channel.Collision ->
                  u.(i) <- u.(i) +. (1.0 /. a);
                  p.(i) <- exp2m u.(i)
              | Channel.Single -> ());
        });
  }

let expected_time_bound ~eps ~n ~window =
  let log2n = Float.max 1.0 (Float.log2 (float_of_int (Int.max 2 n))) in
  (* The theorem is stated for eps < 1; clamp the log(1/eps) factor away
     from 0 so the shape stays usable as a normaliser at eps = 1. *)
  let log_inv_eps = Float.max 0.1 (Float.log2 (1.0 /. eps)) in
  Float.max (float_of_int window) (log2n /. (eps *. eps *. eps *. log_inv_eps))
