module D = Jamming_stats.Descriptive
module Channel = Jamming_channel.Channel

let run scale out =
  let ppf = Output.ppf out in
  let ns, reps =
    match scale with
    | Registry.Quick -> ([ 8; 32; 128 ], 15)
    | Registry.Full -> ([ 4; 8; 32; 128; 512 ], 40)
  in
  let eps = 0.5 and window = 32 in
  let table =
    Table.create
      ~title:"E7: weak-CD LEWK vs strong-CD LESK on the exact engine (eps = 0.5, T = 32)"
      ~columns:
        [
          ("adversary", Table.Left);
          ("n", Table.Right);
          ("LEWK med", Table.Right);
          ("LESK med", Table.Right);
          ("overhead", Table.Right);
          ("correct", Table.Right);
        ]
  in
  let overheads = ref [] in
  List.iter
    (fun adversary ->
      List.iter
        (fun n ->
          let setup = { Runner.n; eps; window; max_slots = 300_000 } in
          (* The pooled spec shares the Exact "LEWK" seed tags, so the
             table is bit-identical to the per-station original — only
             faster (DESIGN.md §15); test_notification.ml asserts that
             identity. *)
          let lewk = Runner.replicate ~engine:(Runner.pooled_lewk ~eps ()) ~reps setup adversary in
          let lesk =
            Runner.replicate
              ~engine:
                (Runner.Exact
                   {
                     name = "LESK";
                     cd = Channel.Strong_cd;
                     factory = Jamming_core.Lesk.station ~eps;
                   })
              ~reps setup adversary
          in
          let mw = Runner.median_slots lewk and mk = Runner.median_slots lesk in
          let overhead = mw /. Float.max 1.0 mk in
          overheads := overhead :: !overheads;
          Table.add_row table
            [
              adversary.Specs.a_name;
              Table.fmt_int n;
              Table.fmt_slots ~capped:(not (Runner.all_completed lewk)) mw;
              Table.fmt_float mk;
              Table.fmt_ratio overhead;
              Table.fmt_pct (Runner.success_rate lewk);
            ])
        ns;
      Table.add_separator table)
    [ Specs.no_jamming; Specs.random_jam ~p:0.5; Specs.greedy; Specs.notification_saboteur ];
  Output.table out table;
  let ovs = Array.of_list !overheads in
  Format.fprintf ppf
    "Overhead median %.2fx, max %.2fx across all cells (Lemma 3.1 proves a constant; its \
     proof gives <= 8x against the adversary's schedule, on top of the interval ramp-up \
     for tiny n).  'correct' must be 100%%: exactly one leader and all stations \
     terminated.@."
    (D.median ovs) (D.max ovs)

let experiment =
  {
    Registry.id = "E7";
    name = "notification-overhead";
    claim =
      "Lemma 3.1 / Theorem 3.2: Notification lifts LESK to weak-CD with constant factor \
       slot overhead and full termination; correctness holds for every adversary and n >= 3.";
    run;
  }
