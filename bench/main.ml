(* Experiment harness: regenerates every table/figure of the reproduction
   (see DESIGN.md section 2 for the index). Run all with

     dune exec bench/main.exe

   or a subset with e.g. [dune exec bench/main.exe -- e4 e5]. *)

let experiments =
  [
    ("e1", "Section 2 / Figure 1 worked example", E01_worked_example.run);
    ("e2", "Smith [Smi89] baseline vs learned", E02_smith_baseline.run);
    ("e3", "PIB1 filter (Eq 3)", E03_pib1.run);
    ("e4", "PIB anytime trajectory on G_B", E04_pib_anytime.run);
    ("e5", "PAO / Theorem 2", E05_pao.run);
    ("e6", "Adaptive PAO / Theorem 3", E06_pao_adaptive.run);
    ("e7", "PIB vs PALO vs PAO", E07_comparison.run);
    ("e8", "complexity micro-benchmarks (Bechamel)", E08_complexity.run);
    ("e9", "segmented distributed database", E09_segmented.run);
    ("e10", "NAF and first-k applications", E10_applications.run);
    ("e11", "Lemma 1 sensitivity", E11_sensitivity.run);
    ("e12", "figure reproduction", E12_figures.run);
    ("e13", "PIB design-choice ablations", E13_ablation.run);
    ("e14", "magic sets vs full bottom-up", E14_magic.run);
    ("e15", "AND/OR hypergraphs (Note 4)", E15_hypergraph.run);
    ("e16", "genealogy knowledge base end-to-end", E16_genealogy.run);
    ("e17", "live query processor with PIB", E17_live.run);
    ("e18", "serve daemon closed-loop throughput/latency", E18_serve.run);
    ("e19", "tracing overhead on the serve path", E19_trace.run);
    ("e20", "answer caching & memoization on the serve path", E20_cache.run);
    ("e21", "observability overhead on the serve path", E21_obs.run);
    ("e22", "serve-path scaling over loop domains", E22_scale.run);
    ("e23", "paged store vs in-memory retrieval", E23_store.run);
    ("e24", "protocol v4 pipelining vs the v3 line protocol", E24_pipeline.run);
    ("e25", "reactor-fleet fan-in over concurrent connections", E25_fleet.run);
    ( "e26",
      "lifecycle tracing + flight-recorder overhead on/off",
      E26_overhead.run );
  ]

let () =
  let requested =
    Sys.argv |> Array.to_list |> List.tl
    |> List.map String.lowercase_ascii
    |> List.filter (fun a -> a <> "")
  in
  let selected =
    if requested = [] then experiments
    else List.filter (fun (id, _, _) -> List.mem id requested) experiments
  in
  if selected = [] then begin
    Printf.eprintf "unknown experiment; available:\n";
    List.iter
      (fun (id, desc, _) -> Printf.eprintf "  %-4s %s\n" id desc)
      experiments;
    exit 1
  end;
  List.iter
    (fun (id, desc, run) ->
      Printf.printf "\n######## %s: %s ########\n" (String.uppercase_ascii id)
        desc;
      run ())
    selected;
  Printf.printf "\nDone: %d experiment(s).\n" (List.length selected)
