module Core = Jamming_core
module Prng = Jamming_prng.Prng
module Budget = Jamming_adversary.Budget

let run scale out =
  let ppf = Output.ppf out in
  let reps = match scale with Registry.Quick -> 20 | Registry.Full -> 100 in
  let window = 64 in
  let table =
    Table.create
      ~title:"E11: LESK slot taxonomy vs the Lemma 2.2/2.3 bounds (greedy adversary, T = 64)"
      ~columns:
        [
          ("n", Table.Right);
          ("eps", Table.Right);
          ("t", Table.Right);
          ("IS", Table.Right);
          ("IS bnd t/a^2", Table.Right);
          ("IC", Table.Right);
          ("IC bnd t/a", Table.Right);
          ("CS", Table.Right);
          ("CC", Table.Right);
          ("E", Table.Right);
          ("R", Table.Right);
          ("2.3 ok", Table.Right);
        ]
  in
  List.iter
    (fun (n, eps) ->
      let a = 8.0 /. eps in
      let u0 = Float.log2 (float_of_int n) in
      let totals = ref Core.Taxonomy.{ is_ = 0; ic = 0; cs = 0; cc = 0; e = 0; r = 0 } in
      let holds = ref 0 in
      for rep = 1 to reps do
        let seed = Prng.seed_of_string (Printf.sprintf "E11/%d/%f/%d" n eps rep) in
        let rng = Prng.create ~seed in
        let tracker = Core.Taxonomy.create ~eps ~n in
        let budget = Budget.create ~window ~eps in
        let (_ : Jamming_sim.Metrics.result) =
          Jamming_sim.Uniform_engine.run
            ~observers:[ Jamming_sim.Observer.of_on_slot (Core.Taxonomy.on_slot tracker) ]
            ~n ~rng
            ~protocol:(Core.Lesk.protocol ~eps ())
            ~adversary:(Jamming_adversary.Adversary.greedy ())
            ~budget ~max_slots:1_000_000 ()
        in
        let c = Core.Taxonomy.counts tracker in
        if Core.Taxonomy.lemma_2_3_holds c ~u0 ~a then incr holds;
        totals :=
          Core.Taxonomy.
            {
              is_ = !totals.is_ + c.is_;
              ic = !totals.ic + c.ic;
              cs = !totals.cs + c.cs;
              cc = !totals.cc + c.cc;
              e = !totals.e + c.e;
              r = !totals.r + c.r;
            }
      done;
      let c = !totals in
      let t = float_of_int (Core.Taxonomy.total c) in
      Table.add_row table
        [
          Table.fmt_int n;
          Table.fmt_float ~decimals:1 eps;
          Table.fmt_float t;
          Table.fmt_int c.Core.Taxonomy.is_;
          Table.fmt_float (t /. (a *. a));
          Table.fmt_int c.Core.Taxonomy.ic;
          Table.fmt_float (t /. a);
          Table.fmt_int c.Core.Taxonomy.cs;
          Table.fmt_int c.Core.Taxonomy.cc;
          Table.fmt_int c.Core.Taxonomy.e;
          Table.fmt_int c.Core.Taxonomy.r;
          Printf.sprintf "%d/%d" !holds reps;
        ])
    [ (256, 0.6); (256, 0.3); (4096, 0.6); (4096, 0.3) ];
  Output.table out table;
  Format.fprintf ppf
    "Counts are pooled over %d runs.  Lemma 2.2 bounds the per-slot rates of IS and IC by \
     1/a^2 and 1/a (columns 'bnd'); Lemma 2.3's deterministic inequalities CS <= (IC+E)/a \
     and CC <= a*IS + a*u0 are checked per run ('2.3 ok').@."
    reps

let experiment =
  {
    Registry.id = "E11";
    name = "slot-taxonomy";
    claim =
      "Lemmas 2.2/2.3/2.5: irregular silences/collisions are rare (1/a^2, 1/a per slot), \
       correcting slots are dominated by irregular+jammed ones, so regular slots dominate \
       and each carries P[Single] >= ln(a)/a^2.";
    run;
  }
