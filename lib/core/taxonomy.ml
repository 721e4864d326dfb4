module Channel = Jamming_channel.Channel
module Metrics = Jamming_sim.Metrics

type counts = { is_ : int; ic : int; cs : int; cc : int; e : int; r : int }

let total c = c.is_ + c.ic + c.cs + c.cc + c.e + c.r

let pp_counts ppf c =
  Format.fprintf ppf "IS=%d IC=%d CS=%d CC=%d E=%d R=%d" c.is_ c.ic c.cs c.cc c.e c.r

type t = {
  a : float;
  mutable walk : float Jamming_sim.Aggregate.outcome;
      (* replica of the common u-walk: [Continue u] until the Single *)
  u0 : float;
  mutable counts : counts;
}

let create ~eps ~n =
  if n < 1 then invalid_arg "Taxonomy.create: n must be >= 1";
  {
    a = Lesk.step_denominator ~where:"Taxonomy.create" ~eps ();
    walk = Continue 0.0;
    u0 = Float.log2 (float_of_int n);
    counts = { is_ = 0; ic = 0; cs = 0; cc = 0; e = 0; r = 0 };
  }

let on_slot t (rec_ : Metrics.slot_record) =
  match t.walk with
  | Elected -> ()
  | Continue u ->
      let low = t.u0 -. Float.log2 (2.0 *. log t.a) in
      let high = t.u0 +. (0.5 *. Float.log2 t.a) in
      let c = t.counts in
      let c' =
        if rec_.Metrics.jammed then { c with e = c.e + 1 }
        else
          match rec_.Metrics.state with
          | Channel.Null ->
              if u <= low then { c with is_ = c.is_ + 1 }
              else if u >= high +. 1.0 then { c with cs = c.cs + 1 }
              else { c with r = c.r + 1 }
          | Channel.Collision ->
              if u >= high then { c with ic = c.ic + 1 }
              else if u <= low then { c with cc = c.cc + 1 }
              else { c with r = c.r + 1 }
          | Channel.Single -> { c with r = c.r + 1 }
      in
      t.counts <- c';
      t.walk <- Lesk.step ~a:t.a u rec_.Metrics.state

let counts t = t.counts

let lemma_2_3_holds c ~u0 ~a =
  float_of_int c.cs <= (float_of_int (c.ic + c.e) /. a) +. 1e-9
  && float_of_int c.cc <= (a *. float_of_int c.is_) +. (u0 *. a) +. 1e-9

let regular_lower_bound c ~u0 ~a =
  let t = float_of_int (total c) in
  t
  -. (float_of_int c.is_ *. (1.0 +. a))
  -. (9.0 /. 8.0 *. float_of_int c.ic)
  -. (u0 *. a)
  -. ((1.0 +. (1.0 /. a)) *. float_of_int c.e)
