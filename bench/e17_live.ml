(* E17 — the deployed system (Figure 4 on a real database).

   Core.Live answers genealogy queries by running PIB's current strategy
   over each query's context — the execution that answers is the one PIB
   learns from — so the strategy's search order changes as PIB climbs.
   The measurement is that execution's work counters (reductions and
   retrievals per query, what the ANSWER line reports) in successive
   windows of the query stream: the knee in the series is the climb. The
   counts equal those of SLD steered by the same strategy. *)

module D = Datalog

let run () =
  let rb = Workload.Genealogy.rulebase () in
  let pop = Workload.Genealogy.populate (Stats.Rng.create 19L) ~n_people:300 in
  let db = Workload.Genealogy.db pop in
  let live =
    Core.Live.create ~rulebase:rb
      ~query_form:(D.Parser.parse_atom "relative(someone)")
      ()
  in
  let people = Array.of_list (Workload.Genealogy.people pop) in
  let r = Stats.Rng.create 20L in
  let window = 2000 in
  let rows =
    List.map
      (fun w ->
        let reds = ref 0 and rets = ref 0 and hits = ref 0 and switches = ref 0 in
        for _ = 1 to window do
          let name = people.(Stats.Rng.int r (Array.length people)) in
          let q = D.Atom.make "relative" [ D.Term.const name ] in
          let a = Core.Live.answer live ~db q in
          reds := !reds + a.Core.Live.stats.D.Sld.reductions;
          rets := !rets + a.Core.Live.stats.D.Sld.retrievals;
          if a.Core.Live.result <> None then incr hits;
          if a.Core.Live.switched then incr switches
        done;
        let f x = float_of_int !x /. float_of_int window in
        [
          Printf.sprintf "%d-%d" ((w * window) + 1) ((w + 1) * window);
          Table.f2 (f reds);
          Table.f2 (f rets);
          Table.f2 (f reds +. f rets);
          Table.pct (f hits);
          Table.i !switches;
        ])
      [ 0; 1; 2; 3; 4 ]
  in
  Table.print
    ~title:
      "E17: live query processor with PIB attached (genealogy, windows \
       of 2000 queries)"
    ~header:
      [ "queries"; "reductions/q"; "retrievals/q"; "work/q"; "answered";
        "switches" ]
    rows;
  let reds, rets = Core.Live.work live in
  Table.note
    "Total work over %d queries: %d reductions, %d retrievals. The \
     strategy in\nforce at the end: %s\n"
    (Core.Live.queries live) reds rets
    (Format.asprintf "%a" Strategy.Spec.pp_dfs (Core.Live.strategy live))
