(* strategem — command-line front end.

   Subcommands:
     query    run queries from a Datalog file (SLD or semi-naive engine)
     graph    build and print the inference graph of a query form
     optimal  compute the optimal strategy for given success probabilities
     smith    the [Smi89] fact-count baseline strategy
     learn    watch a query stream and improve the strategy (PIB/PALO/PAO)
     explain  answer one query with tracing on and show the span tree
     serve    TCP daemon answering queries and learning online
     client   minimal line-protocol client for the serve daemon
     demo     the full Figure-1 walkthrough *)

open Cmdliner
module D = Datalog
open Infgraph
open Strategy

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let load_kb path =
  let rules, facts, queries = D.Parser.parse_kb (read_file path) in
  (D.Rulebase.of_list rules, D.Database.of_list facts, queries)

(* ---------- common arguments ---------- *)

let file_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"FILE" ~doc:"Datalog program (rules, facts, queries).")

let form_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "form"; "f" ] ~docv:"ATOM"
        ~doc:
          "Query form as an atom whose constants mark bound positions, e.g. \
           'instructor(q)'.")

let probs_arg =
  Arg.(
    value
    & opt (list ~sep:',' (pair ~sep:'=' string float)) []
    & info [ "probs"; "p" ] ~docv:"L=P,..."
        ~doc:
          "Success probabilities by arc label, e.g. 'D_prof=0.6,D_grad=0.15' \
           (unlisted blockable arcs default to 0.5).")

let dot_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "dot" ] ~docv:"OUT.dot" ~doc:"Also write a Graphviz rendering.")

(* ---------- query ---------- *)

let run_query file all limit engine =
  let rulebase, db, queries = load_kb file in
  if queries = [] then (
    Fmt.epr "no ?- queries in %s@." file;
    exit 1);
  List.iter
    (fun goal ->
      Fmt.pr "?- %a.@."
        (Fmt.list ~sep:(Fmt.any ", ") D.Clause.pp_lit)
        goal;
      match engine with
      | `Seminaive ->
        List.iter
          (fun lit ->
            match lit with
            | D.Clause.Pos atom ->
              let answers = D.Seminaive.query rulebase db atom in
              if answers = [] then Fmt.pr "  no.@."
              else
                List.iter (fun a -> Fmt.pr "  %a.@." D.Atom.pp a) answers
            | D.Clause.Neg _ ->
              Fmt.epr "  (semi-naive driver takes positive goals only)@.")
          goal
      | `Sld ->
        let cfg = D.Sld.config ~rulebase ~db () in
        let answers, stats =
          if all then D.Sld.solve_all ?limit cfg goal
          else
            match D.Sld.solve_first cfg goal with
            | Some s, st -> ([ s ], st)
            | None, st -> ([], st)
        in
        if answers = [] then Fmt.pr "  no.@."
        else
          List.iter
            (fun s ->
              if D.Subst.is_empty s then Fmt.pr "  yes.@."
              else Fmt.pr "  %a@." D.Subst.pp s)
            answers;
        Fmt.pr "  [%d reductions, %d retrievals (%d hits)%s]@."
          stats.D.Sld.reductions stats.D.Sld.retrievals
          stats.D.Sld.retrieval_hits
          (if stats.D.Sld.truncated then ", depth-truncated" else ""))
    queries

let query_cmd =
  let all =
    Arg.(value & flag & info [ "all"; "a" ] ~doc:"Enumerate all answers.")
  in
  let limit =
    Arg.(
      value
      & opt (some int) None
      & info [ "limit"; "n" ] ~docv:"N" ~doc:"Stop after N answers.")
  in
  let engine =
    Arg.(
      value
      & opt (enum [ ("sld", `Sld); ("seminaive", `Seminaive) ]) `Sld
      & info [ "engine" ] ~docv:"ENGINE" ~doc:"sld (top-down) or seminaive.")
  in
  Cmd.v
    (Cmd.info "query" ~doc:"Run the ?- queries of a Datalog file.")
    Term.(const run_query $ file_arg $ all $ limit $ engine)

(* ---------- graph ---------- *)

let build_graph file form =
  let rulebase, _db, _ = load_kb file in
  Build.build ~rulebase ~query_form:(D.Parser.parse_atom form) ()

let run_graph file form dot save =
  let result = build_graph file form in
  let g = result.Build.graph in
  Fmt.pr "%a@." Graph.pp g;
  if result.Build.truncated then
    Fmt.pr "(recursive rule base: unfolding was depth-bounded)@.";
  Fmt.pr "tree: %d nodes, %d arcs, %d retrievals, total cost %g@."
    (Graph.n_nodes g) (Graph.n_arcs g)
    (List.length (Graph.retrievals g))
    (Costs.total g);
  (match dot with
  | Some path ->
    Dot.to_file path g;
    Fmt.pr "wrote %s@." path
  | None -> ());
  (match save with
  | Some path ->
    Serial.graph_to_file path g;
    Fmt.pr "saved graph to %s@." path
  | None -> ())

let save_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "save" ] ~docv:"OUT.graph"
        ~doc:"Save the graph in the strategem text format.")

let graph_cmd =
  Cmd.v
    (Cmd.info "graph" ~doc:"Build the inference graph for a query form.")
    Term.(const run_graph $ file_arg $ form_arg $ dot_arg $ save_arg)

(* ---------- optimal / smith ---------- *)

let model_of_probs g probs = Bernoulli_model.of_alist g probs

let run_optimal file form probs =
  let result = build_graph file form in
  let g = result.Build.graph in
  let model = model_of_probs g probs in
  let dfs, cost = Upsilon.aot model in
  Fmt.pr "optimal DFS strategy: %a@." Spec.pp_dfs dfs;
  Fmt.pr "expected cost: %.4f@." cost;
  if Graph.simple_disjunctive g then begin
    let spec, cost = Upsilon.ot_sidney model in
    Fmt.pr "optimal path order:  %a@." Spec.pp spec;
    Fmt.pr "expected cost: %.4f@." cost
  end

let optimal_cmd =
  Cmd.v
    (Cmd.info "optimal"
       ~doc:"Compute the optimal strategy for given success probabilities.")
    Term.(const run_optimal $ file_arg $ form_arg $ probs_arg)

let run_smith file form =
  let rulebase, db, _ = load_kb file in
  let result =
    Build.build ~rulebase ~query_form:(D.Parser.parse_atom form) ()
  in
  let g = result.Build.graph in
  let model = Core.Smith.probabilities g db in
  List.iter
    (fun a ->
      Fmt.pr "%s: p_hat = %.3f@." a.Graph.label
        (Bernoulli_model.prob model a.Graph.arc_id))
    (Graph.retrievals g);
  Fmt.pr "Smith strategy: %a@." Spec.pp_dfs (Core.Smith.strategy g db)

let smith_cmd =
  Cmd.v
    (Cmd.info "smith"
       ~doc:"The [Smi89] baseline: probabilities from database fact counts.")
    Term.(const run_smith $ file_arg $ form_arg)

(* ---------- learn ---------- *)

let mix_arg =
  Arg.(
    required
    & opt (some (list ~sep:',' (pair ~sep:'=' string float))) None
    & info [ "mix"; "m" ] ~docv:"CONST=W,..."
        ~doc:
          "Query distribution over the bound argument, e.g. \
           'russ=0.6,manolis=0.15,fred=0.25'.")

let algo_arg =
  Arg.(
    value
    & opt (enum [ ("pib", `Pib); ("palo", `Palo); ("pao", `Pao) ]) `Pib
    & info [ "algo" ] ~docv:"ALGO" ~doc:"pib, palo or pao.")

let n_arg =
  Arg.(
    value & opt int 10_000
    & info [ "queries"; "n" ] ~docv:"N" ~doc:"Number of queries to watch.")

let delta_arg =
  Arg.(
    value & opt float 0.05
    & info [ "delta" ] ~docv:"D" ~doc:"Confidence parameter.")

let epsilon_arg =
  Arg.(
    value & opt float 0.25
    & info [ "epsilon" ] ~docv:"E" ~doc:"Approximation parameter (palo/pao).")

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"RNG seed.")

let save_strategy_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "save-strategy" ] ~docv:"OUT.strategy"
        ~doc:"Persist the learned strategy (strategem text format).")

let run_learn file form mix algo n delta epsilon seed save_strategy =
  let rulebase, db, _ = load_kb file in
  let result =
    Build.build ~rulebase ~query_form:(D.Parser.parse_atom form) ()
  in
  let g = result.Build.graph in
  let dist =
    Stats.Distribution.create
      (List.map
         (fun (const, w) -> ((Build.query_of_consts result [ const ], db), w))
         mix)
  in
  let rng = Stats.Rng.create (Int64.of_int seed) in
  let oracle = Core.Oracle.of_queries g dist rng in
  let start = Spec.default g in
  Fmt.pr "initial strategy: %a@." Spec.pp_dfs start;
  let final =
  (match algo with
  | `Pib ->
    let pib =
      Core.Pib.create ~config:{ Core.Pib.default_config with delta } start
    in
    let climbs = Core.Pib.run pib oracle ~n in
    List.iter
      (fun cl ->
        Fmt.pr "climb %d after %d samples: %a@." cl.Core.Pib.step
          cl.Core.Pib.samples Spec.pp_dfs cl.Core.Pib.to_strategy)
      climbs;
    Fmt.pr "final strategy (%d climbs over %d queries): %a@."
      (List.length climbs) (Core.Pib.samples_total pib) Spec.pp_dfs
      (Core.Pib.current pib);
    Core.Pib.current pib
  | `Palo ->
    let palo =
      Core.Palo.create
        ~config:{ Core.Palo.default_config with delta; epsilon }
        start
    in
    (match Core.Palo.run palo oracle ~max_contexts:n with
    | Core.Palo.Stopped { total_samples; _ } ->
      Fmt.pr "PALO stopped after %d samples (%d climbs)@." total_samples
        (List.length (Core.Palo.climbs palo))
    | Core.Palo.Running -> Fmt.pr "PALO still running after %d contexts@." n);
    Fmt.pr "final strategy: %a@." Spec.pp_dfs (Core.Palo.current palo);
    Core.Palo.current palo
  | `Pao ->
    let report =
      Core.Pao.run ~max_contexts:n ~scale:0.01 ~epsilon ~delta oracle
    in
    List.iter
      (fun a ->
        Fmt.pr "%s: p_hat = %.3f (%d samples)@." a.Graph.label
          report.Core.Pao.p_hat.(a.Graph.arc_id)
          report.Core.Pao.attempts.(a.Graph.arc_id))
      (Graph.retrievals g);
    Fmt.pr "PAO strategy (engineering mode, 1%% of Eq 7; %d contexts%s): %a@."
      report.Core.Pao.contexts_used
      (if report.Core.Pao.capped then ", capped" else "")
      Spec.pp_dfs report.Core.Pao.strategy;
    report.Core.Pao.strategy)
  in
  match save_strategy with
  | Some path ->
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> output_string oc (Persist.dfs_to_string final));
    Fmt.pr "saved strategy to %s@." path
  | None -> ()

let learn_cmd =
  Cmd.v
    (Cmd.info "learn"
       ~doc:"Watch a query stream and improve the strategy (PIB/PALO/PAO).")
    Term.(
      const run_learn $ file_arg $ form_arg $ mix_arg $ algo_arg $ n_arg
      $ delta_arg $ epsilon_arg $ seed_arg $ save_strategy_arg)

(* ---------- eval (saved artifacts) ---------- *)

let run_eval graph_file strategy_file probs =
  let g = Serial.graph_of_file graph_file in
  let model = Bernoulli_model.of_alist g probs in
  let spec =
    match strategy_file with
    | Some path ->
      let ic = open_in_bin path in
      let text =
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      Persist.of_string g text
    | None -> Spec.Dfs (Spec.default g)
  in
  Fmt.pr "strategy: %a@." Spec.pp spec;
  (match spec with
  | Spec.Dfs d ->
    let cost, prob = Cost.exact_dfs d model in
    Fmt.pr "expected cost: %.4f  success probability: %.4f@." cost prob
  | Spec.Paths _ ->
    Fmt.pr "expected cost: %.4f@." (Cost.exact_enum spec model));
  let opt, c_opt = Upsilon.aot model in
  Fmt.pr "optimal DFS strategy would be %a at %.4f@." Spec.pp_dfs opt c_opt

let eval_cmd =
  let graph_file =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"GRAPH" ~doc:"A graph saved with 'graph --save'.")
  in
  let strategy_file =
    Arg.(
      value
      & opt (some file) None
      & info [ "strategy"; "s" ] ~docv:"FILE"
          ~doc:"A strategy saved with 'learn --save-strategy' (default: the \
                graph's construction order).")
  in
  Cmd.v
    (Cmd.info "eval"
       ~doc:"Evaluate a saved strategy on a saved graph under given \
             probabilities.")
    Term.(const run_eval $ graph_file $ strategy_file $ probs_arg)

(* ---------- explain ---------- *)

let run_explain file atom_text json dot cached =
  let rulebase, db, _ = load_kb file in
  let q = D.Parser.parse_atom atom_text in
  let form = Serve.Registry.form_of_query q in
  let registry = Serve.Registry.create ~rulebase (Serve.Metrics.create ()) in
  let cache =
    if cached then
      Some (Cache.Answers.create ~capacity_bytes:(8 * 1024 * 1024) ())
    else None
  in
  let memo = if cached then Some (D.Sld.Memo.create ()) else None in
  (* Warm pass (untraced): fills the cache so the traced pass below is an
     exact hit. *)
  if cached then ignore (Serve.Registry.answer ?cache ?memo registry ~db q);
  let tracer = Trace.make () in
  let root = Trace.root tracer ~kind:"query" (D.Atom.to_string q) in
  let ans =
    Serve.Registry.answer ~tracer ~parent:root ?cache ?memo registry ~db q
  in
  Trace.finish tracer root;
  let result =
    match ans.Core.Live.result with
    | None -> "no"
    | Some s when D.Subst.is_empty s -> "yes"
    | Some s -> Format.asprintf "%a" D.Subst.pp s
  in
  if json then Fmt.pr "%s@." (Trace.to_json root)
  else begin
    Fmt.pr "?- %a.@." D.Atom.pp q;
    Fmt.pr "answer: %s  [%d reductions, %d retrievals]%s@." result
      ans.Core.Live.stats.D.Sld.reductions
      ans.Core.Live.stats.D.Sld.retrievals
      (if ans.Core.Live.cached then "  (cached)" else "");
    Fmt.pr "%a" Trace.pp_tree root;
    let exec_cost =
      List.fold_left
        (fun acc sp -> acc +. Trace.total_cost sp)
        0.0
        (Trace.find_kind root "exec")
    in
    Fmt.pr "paper cost: %g (monitor: %g, %s)@." exec_cost ans.Core.Live.cost
      (if Float.abs (exec_cost -. ans.Core.Live.cost) <= 1e-9 then
         "consistent"
       else "INCONSISTENT")
  end;
  match dot with
  | None -> ()
  | Some path ->
    let arc_ids =
      Trace.find_kind root "arc"
      |> List.filter_map (fun sp ->
             Option.bind (Trace.attr sp "arc_id") int_of_string_opt)
    in
    let graph =
      Serve.Registry.with_live
        (Serve.Registry.find_or_create registry q)
        Core.Live.graph
    in
    Dot.to_file
      ~name:(Format.asprintf "%a" D.Atom.pp form)
      ~highlight:arc_ids path graph;
    Fmt.pr "wrote %s@." path

let explain_cmd =
  let atom_arg =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"ATOM" ~doc:"The query to explain, e.g. \
                                   'instructor(manolis)'.")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Print the span tree as one JSON line (with timings) \
                instead of the text tree.")
  in
  let cached =
    Arg.(
      value & flag
      & info [ "cached" ]
          ~doc:
            "Answer the query twice through an answer cache and trace the \
             second, cache-served answer: the tree shows the cache_hit \
             event and the learner pipeline that still runs on hits.")
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Answer one query with tracing on and show where every \
          paper-cost unit went (text tree, JSON, or a DOT rendering with \
          the traversed arcs highlighted).")
    Term.(
      const run_explain $ file_arg $ atom_arg $ json $ dot_arg $ cached)

(* ---------- serve / client ---------- *)

let host_arg =
  Arg.(
    value
    & opt string "127.0.0.1"
    & info [ "host" ] ~docv:"ADDR" ~doc:"Address to bind/connect to.")

let run_serve file host port loops queue_depth max_conns state_dir
    snapshot_interval delta learner trace_sample cache_mb no_cache _subsume
    metrics_port log_level log_file slow_query_ms data_dir buffer_pages
    idle_timeout_s max_conns_per_ip max_write_buf_mb max_write_total_mb
    no_lifecycle flight_capacity retain =
  let rulebase, db, _ = load_kb file in
  let db =
    match data_dir with
    | None -> db
    | Some dir ->
      let paged = D.Database.open_paged ~dir ?buffer_pages () in
      if D.Database.size paged = 0 then begin
        (* Cold start: write the program's facts as one checkpoint
           image, so a crash mid-load leaves an empty store that the next
           start loads again, never a partial one. *)
        D.Database.bulk_load paged ~src:db;
        Fmt.pr "strategem serve: store: loaded %d fact(s)@."
          (D.Database.size paged)
      end
      else
        Fmt.pr "strategem serve: store: warm start (%d fact(s))@."
          (D.Database.size paged);
      paged
  in
  let learner_config =
    {
      Core.Learner.default_config with
      pib = { Core.Pib.default_config with delta };
      palo = { Core.Palo.default_config with delta };
      pao_delta = delta;
    }
  in
  let config =
    {
      Serve.Server.host;
      port;
      queue_depth;
      max_conns;
      state_dir;
      snapshot_interval;
      learner;
      learner_config;
      trace_sample;
      cache_mb = (if no_cache then 0 else cache_mb);
      metrics_port;
      log_level;
      log_file;
      slow_query_us = slow_query_ms *. 1000.0;
      loops;
      max_write_buf = max_write_buf_mb * 1024 * 1024;
      max_write_total = max_write_total_mb * 1024 * 1024;
      idle_timeout_s;
      max_conns_per_ip;
      lifecycle = not no_lifecycle;
      flight_capacity;
      retain;
    }
  in
  Serve.Server.run ~handle_signals:true
    ~on_listen:(fun port ->
      Fmt.pr "strategem serve: listening on %s:%d (%d loops)@." host port
        (Serve.Server.loop_count config))
    ~on_metrics_listen:(fun mport ->
      Fmt.pr "strategem serve: metrics on %s:%d@." host mport)
    config ~rulebase ~db;
  D.Database.close db;
  Fmt.pr "strategem serve: shut down cleanly@."

let serve_cmd =
  let port =
    Arg.(
      value & opt int 4280
      & info [ "port" ] ~docv:"PORT" ~doc:"TCP port (0 picks one).")
  in
  let queue_depth =
    Arg.(
      value & opt int 64
      & info [ "queue-depth" ] ~docv:"N"
          ~doc:
            "Request bound across the fleet: each event loop queues at \
             most ceil(N / loops) parsed requests, and a request parsed \
             beyond its loop's share is shed with BUSY. A line \
             connection with that many requests pending is not read \
             until they run.")
  in
  let max_conns =
    Arg.(
      value & opt int 10_000
      & info [ "max-conns" ] ~docv:"N"
          ~doc:
            "Open-connection cap; connections past it are answered BUSY \
             and closed at accept.")
  in
  let state_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "state-dir" ] ~docv:"DIR"
          ~doc:
            "Snapshot learned strategies here (reloaded on startup; also \
             written on SHUTDOWN and by the SNAPSHOT command).")
  in
  let snapshot_interval =
    Arg.(
      value & opt float 0.0
      & info [ "snapshot-interval" ] ~docv:"SECONDS"
          ~doc:"Periodic snapshot interval (0 disables).")
  in
  let learner =
    Arg.(
      value
      & opt
          (enum
             (List.map
                (fun k -> (Core.Learner.kind_to_string k, k))
                Core.Learner.all_kinds))
          `Pib
      & info [ "learner" ] ~docv:"LEARNER"
          ~doc:
            "Per-form learner: pib, pib1, pao, pao-adaptive or palo \
             (default pib).")
  in
  let trace_sample =
    Arg.(
      value & opt int 0
      & info [ "trace-sample" ] ~docv:"N"
          ~doc:
            "Trace every query and keep the last N query traces per loop \
             in its retained buffer; STATS JSON lists the newest N across \
             loops as recent_traces (0 disables tracing of ordinary \
             queries; TRACE always traces). Needs the lifecycle layer \
             (see --no-lifecycle).")
  in
  let cache_mb =
    Arg.(
      value & opt int 64
      & info [ "cache-mb" ] ~docv:"MB"
          ~doc:
            "Answer-cache budget in MiB; also enables SLD subgoal \
             memoization. 0 disables both (see --no-cache).")
  in
  let no_cache =
    Arg.(
      value & flag
      & info [ "no-cache" ]
          ~doc:
            "Disable the answer cache and subgoal memoization (same as \
             --cache-mb 0).")
  in
  (* Subsumption-based answer reuse was removed; both flags still parse
     so existing command lines keep working. *)
  let subsume =
    Arg.(
      value
      & vflag true
          [
            ( true,
              info [ "subsume" ]
                ~doc:
                  "Accepted and ignored: subsumption-based answer reuse \
                   was removed, so only exact alpha-variant repeats hit \
                   the cache." );
            ( false,
              info [ "no-subsume" ] ~doc:"Accepted and ignored (see --subsume)."
            );
          ])
  in
  let metrics_port =
    Arg.(
      value
      & opt (some int) None
      & info [ "metrics-port" ] ~docv:"PORT"
          ~doc:
            "Serve GET /metrics (Prometheus text format), GET /healthz \
             and GET /debug/flight on this port, from the event loops (0 \
             picks one; the bound port is printed at startup). Off by \
             default.")
  in
  let log_level =
    Arg.(
      value
      & opt
          (enum
             [
               ("off", None);
               ("debug", Some Obs.Log.Debug);
               ("info", Some Obs.Log.Info);
               ("warn", Some Obs.Log.Warn);
               ("error", Some Obs.Log.Error);
             ])
          (Some Obs.Log.Info)
      & info [ "log-level" ] ~docv:"LEVEL"
          ~doc:
            "Structured-log threshold: off, debug, info (default), warn \
             or error. Logs are JSONL, one object per line.")
  in
  let log_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "log-file" ] ~docv:"PATH"
          ~doc:"Append structured logs to PATH instead of stderr.")
  in
  let slow_query_ms =
    Arg.(
      value & opt float 0.0
      & info [ "slow-query-ms" ] ~docv:"MS"
          ~doc:
            "Count and retain requests whose end-to-end time reaches MS \
             milliseconds, each with one warn record inlining its span \
             tree (rate limited to one record per second); a slow \
             request with no query trace arms tracing of its loop's next \
             query. Needs the lifecycle layer. 0 disables.")
  in
  let data_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "data-dir" ] ~docv:"DIR"
          ~doc:
            "Serve facts from a paged persistent store rooted at DIR \
             instead of in-memory sets. An empty store is filled with \
             FILE's facts, written as one checkpoint image; a populated \
             one starts \
             warm (FILE's facts are not re-added) after WAL recovery. \
             See docs/STORAGE.md.")
  in
  let buffer_pages =
    Arg.(
      value
      & opt (some int) None
      & info [ "buffer-pages" ] ~docv:"N"
          ~doc:
            "Buffer-pool frames for --data-dir (default 256, min 2); \
             each frame holds one 4 KiB page. Databases larger than the \
             pool page in from disk on access.")
  in
  let loops =
    let flag names doc =
      Arg.(value & opt (some int) None & info names ~docv:"N" ~doc)
    in
    let resolve loops workers =
      match (loops, workers) with
      | Some l, Some w when l <> w ->
        `Error (true, "--loops and --workers name the same count; give one")
      | Some n, _ | None, Some n -> `Ok n
      | None, None -> `Ok 0
    in
    Term.(
      ret
        (const resolve
        $ flag [ "loops" ]
            "Event loops in the reactor fleet, one OCaml domain each with \
             a private epoll instance. Each loop parses, executes and \
             answers the requests of the connections it owns; new \
             connections are placed by power-of-two choices. 0 (the \
             default) means min(4, the host's recommended domain count)."
        $ flag [ "workers"; "j" ] "Another spelling of $(b,--loops)."))
  in
  let idle_timeout_s =
    Arg.(
      value & opt float 0.0
      & info [ "idle-timeout-s" ] ~docv:"SECONDS"
          ~doc:
            "Close connections with no traffic for SECONDS (swept once \
             per second per loop; in-flight requests hold a connection \
             open). 0 (the default) disables.")
  in
  let max_conns_per_ip =
    Arg.(
      value & opt int 0
      & info [ "max-conns-per-ip" ] ~docv:"N"
          ~doc:
            "Accept-time cap on open connections per peer IP; \
             connections past it are answered BUSY and closed. 0 (the \
             default) disables.")
  in
  let max_write_buf_mb =
    Arg.(
      value & opt int 64
      & info [ "max-write-buf-mb" ] ~docv:"MB"
          ~doc:
            "Per-connection write-buffer cap; a connection that buffers \
             past it (a reader that never drains) is answered one BUSY \
             and disconnected. 0 uncaps.")
  in
  let max_write_total_mb =
    Arg.(
      value & opt int 0
      & info [ "max-write-total-mb" ] ~docv:"MB"
          ~doc:
            "Global cap on the sum of all buffered response bytes; \
             breaching it sheds the offending connection like \
             --max-write-buf-mb. 0 (the default) uncaps.")
  in
  let no_lifecycle =
    Arg.(
      value & flag
      & info [ "no-lifecycle" ]
          ~doc:
            "Turn off per-request lifecycle tracking (on by default): \
             stage latency histograms, trace retention and sampling, the \
             slow-query log, and flight-ring request events. The flight \
             ring still records accepts and closes.")
  in
  let flight_capacity =
    Arg.(
      value & opt int 4096
      & info [ "flight-capacity" ] ~docv:"N"
          ~doc:
            "Per-loop flight-recorder ring capacity in events (rounded \
             up to a power of two; about 48 bytes each). 0 disables the \
             ring. Dump it with the FLIGHT verb, GET /debug/flight, or \
             SIGQUIT.")
  in
  let retain =
    Arg.(
      value & opt int 64
      & info [ "retain" ] ~docv:"N"
          ~doc:
            "Tail-retained trace buffer size per loop: the full span \
             trees of the last N slow / error / shed requests, served \
             by FLIGHT and /debug/flight. 0 keeps none (their warn \
             records are still written).")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve queries over TCP, learning a better strategy from every \
          answered query.")
    Term.(
      const run_serve $ file_arg $ host_arg $ port $ loops $ queue_depth
      $ max_conns $ state_dir $ snapshot_interval $ delta_arg $ learner
      $ trace_sample $ cache_mb $ no_cache $ subsume $ metrics_port $ log_level
      $ log_file $ slow_query_ms $ data_dir $ buffer_pages $ idle_timeout_s
      $ max_conns_per_ip $ max_write_buf_mb $ max_write_total_mb $ no_lifecycle
      $ flight_capacity $ retain)

let client_lines c commands =
  (* Historical CLI behaviour, byte for byte: write every line, half-close
     so the server sees EOF after the last command and closes once every
     reply is out, then "read to EOF" prints exactly the replies. The
     lines are written from a second thread while this one reads: the
     server stops reading a line connection whose replies go unread, so
     a long stream written before any read would stall. A server that
     closes early (QUIT) ends the writer quietly. *)
  let writer =
    Thread.create
      (fun () ->
        try
          List.iter (Serve.Client.send_line c) commands;
          Serve.Client.half_close c
        with Sys_error _ | Unix.Unix_error _ -> ())
      ()
  in
  Serve.Client.drain c print_endline;
  Thread.join writer;
  Serve.Client.close c

let client_v4 c commands =
  (* Pipelined: post every request before reading any response, then
     print the replies sorted by request id, each line prefixed with
     "#<id> " so out-of-order arrival is observable but the output is
     deterministic. Lines the framed dialect cannot carry are answered
     locally under id 0 — the same ERR text the server's line dialect
     would send. *)
  let local = ref [] in
  let expected =
    List.fold_left
      (fun acc line ->
        match Serve.Client.post c line with
        | _id -> acc + 1
        | exception Invalid_argument _ ->
          (match Serve.Protocol.parse line with
          | Serve.Protocol.Empty -> ()
          | Serve.Protocol.Malformed msg ->
            local := Serve.Protocol.err ~code:`Malformed msg :: !local
          | Serve.Protocol.Unknown verb ->
            local := Serve.Protocol.err ~code:`Unknown_verb verb :: !local
          | _ -> ());
          acc)
      0 commands
  in
  (* [local] is reversed; [replies] is reversed again before the sort,
     so seeding it with the once-reversed list restores command order. *)
  let replies = ref (List.map (fun l -> (0, [ l ])) !local) in
  (try
     for _ = 1 to expected do
       replies := Serve.Client.recv c :: !replies
     done
   with End_of_file | Failure _ -> ());
  List.stable_sort (fun (a, _) (b, _) -> Int.compare a b) (List.rev !replies)
  |> List.iter (fun (id, lines) ->
         List.iter (fun l -> Fmt.pr "#%d %s@." id l) lines);
  Serve.Client.close c

let run_client host port proto commands =
  let commands =
    match commands with
    | [ "-" ] -> In_channel.input_lines In_channel.stdin
    | cs -> cs
  in
  let c =
    try Serve.Client.connect ~proto ~host ~port ()
    with
    | Unix.Unix_error (e, _, _) ->
      Fmt.epr "connect %s:%d: %s@." host port (Unix.error_message e);
      exit 1
    | Failure msg ->
      Fmt.epr "connect %s:%d: %s@." host port msg;
      exit 1
  in
  match Serve.Client.protocol c with
  | `Lines -> client_lines c commands
  | `V4 -> client_v4 c commands

let client_cmd =
  let port =
    Arg.(
      required
      & opt (some int) None
      & info [ "port"; "p" ] ~docv:"PORT" ~doc:"Server port.")
  in
  let proto =
    Arg.(
      value
      & opt (enum [ ("lines", `Lines); ("v4", `V4); ("auto", `Auto) ]) `Lines
      & info [ "proto" ] ~docv:"PROTO"
          ~doc:
            "Wire dialect: lines (default, the v2/v3 line protocol, \
             replies printed verbatim), v4 (framed protocol v4 — all \
             requests are pipelined before any response is read, and \
             replies print as '#<id> <line>' sorted by request id), or \
             auto (negotiate v4, falling back to lines on an older \
             server).")
  in
  let commands =
    Arg.(
      non_empty & pos_all string []
      & info [] ~docv:"COMMAND"
          ~doc:
            "Protocol lines to send, e.g. 'QUERY instructor(russ)'; a \
             single '-' reads them from stdin.")
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:
         "Send protocol lines to a strategem serve daemon and print the \
          replies.")
    Term.(const run_client $ host_arg $ port $ proto $ commands)

(* ---------- scrape / watch ---------- *)

(* One blocking HTTP/1.1 GET against the daemon's metrics responder.
   Returns (status, body) or an error message. *)
let http_get ~host ~port path =
  match Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 with
  | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
  | fd ->
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        match
          Unix.connect fd
            (Unix.ADDR_INET (Unix.inet_addr_of_string host, port))
        with
        | exception Unix.Unix_error (e, _, _) ->
          Error
            (Printf.sprintf "connect %s:%d: %s" host port
               (Unix.error_message e))
        | () -> (
          let req =
            Printf.sprintf
              "GET %s HTTP/1.1\r\nHost: %s:%d\r\nConnection: close\r\n\r\n"
              path host port
          in
          ignore (Unix.write_substring fd req 0 (String.length req));
          let buf = Buffer.create 8192 in
          let chunk = Bytes.create 8192 in
          let rec read_all () =
            match Unix.read fd chunk 0 (Bytes.length chunk) with
            | 0 -> ()
            | n ->
              Buffer.add_subbytes buf chunk 0 n;
              read_all ()
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_all ()
          in
          (try read_all () with Unix.Unix_error _ -> ());
          let raw = Buffer.contents buf in
          let sep = "\r\n\r\n" in
          let rec find i =
            if i + String.length sep > String.length raw then None
            else if String.sub raw i (String.length sep) = sep then Some i
            else find (i + 1)
          in
          match find 0 with
          | None -> Error "malformed HTTP response"
          | Some i ->
            let head = String.sub raw 0 i in
            let body =
              String.sub raw
                (i + String.length sep)
                (String.length raw - i - String.length sep)
            in
            let status =
              match String.split_on_char ' ' head with
              | _ :: code :: _ ->
                Option.value ~default:0 (int_of_string_opt code)
              | _ -> 0
            in
            Ok (status, body)))

let metrics_port_arg =
  Arg.(
    required
    & opt (some int) None
    & info [ "port"; "p" ] ~docv:"PORT"
        ~doc:"The daemon's --metrics-port.")

let run_scrape host port lint healthz =
  let path = if healthz then "/healthz" else "/metrics" in
  match http_get ~host ~port path with
  | Error msg ->
    Fmt.epr "strategem scrape: %s@." msg;
    exit 1
  | Ok (status, body) ->
    print_string body;
    if status <> 200 then begin
      Fmt.epr "strategem scrape: HTTP %d from %s@." status path;
      exit 1
    end;
    if lint && not healthz then begin
      match Obs.Expo.lint body with
      | Ok () -> Fmt.epr "lint: ok@."
      | Error problems ->
        List.iter (fun p -> Fmt.epr "lint: %s@." p) problems;
        exit 1
    end

let scrape_cmd =
  let lint =
    Arg.(
      value & flag
      & info [ "lint" ]
          ~doc:
            "Check the scraped document against the exposition-format \
             rules (HELP/TYPE presence, name validity, duplicate series, \
             histogram consistency) and exit nonzero on any violation.")
  in
  let healthz =
    Arg.(
      value & flag
      & info [ "healthz" ]
          ~doc:
            "Fetch /healthz instead of /metrics; exits nonzero unless \
             the daemon answers 200 (ready).")
  in
  Cmd.v
    (Cmd.info "scrape"
       ~doc:
         "Fetch a strategem daemon's /metrics (or /healthz) over HTTP \
          and print it, optionally linting the exposition format.")
    Term.(const run_scrape $ host_arg $ metrics_port_arg $ lint $ healthz)

(* ---------- watch ---------- *)

let sample_value samples metric form =
  List.find_opt
    (fun s ->
      s.Obs.Expo.metric = metric
      && List.assoc_opt "form" s.Obs.Expo.labels = Some form)
    samples
  |> Option.map (fun s -> s.Obs.Expo.value)

let solo_value samples metric =
  List.find_opt
    (fun s -> s.Obs.Expo.metric = metric && s.Obs.Expo.labels = [])
    samples
  |> Option.map (fun s -> s.Obs.Expo.value)

let eps_str v =
  if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%.4g" v

let watch_tick ~host ~port =
  match http_get ~host ~port "/metrics" with
  | Error msg ->
    Fmt.epr "strategem watch: %s@." msg;
    exit 1
  | Ok (status, body) when status = 200 -> (
    match Obs.Expo.parse_samples body with
    | exception Obs.Expo.Bad_line l ->
      Fmt.epr "strategem watch: bad exposition line: %s@." l;
      exit 1
    | samples ->
      let forms =
        List.filter_map
          (fun s ->
            if s.Obs.Expo.metric = "strategem_learner_epsilon" then
              List.assoc_opt "form" s.Obs.Expo.labels
            else None)
          samples
        |> List.sort_uniq String.compare
      in
      let v metric form = Option.value ~default:0.0 (sample_value samples metric form) in
      Fmt.pr "uptime %.0fs  queries %.0f  climbs %.0f  cache hits %.0f  queue %.0f@."
        (Option.value ~default:0.0 (solo_value samples "strategem_uptime_seconds"))
        (List.fold_left (fun acc f -> acc +. v "strategem_queries_total" f) 0.0 forms)
        (List.fold_left (fun acc f -> acc +. v "strategem_climbs_total" f) 0.0 forms)
        (Option.value ~default:0.0 (solo_value samples "strategem_cache_hits_total"))
        (Option.value ~default:0.0 (solo_value samples "strategem_queue_depth"));
      (* Paged-store line, only when the daemon serves from one. *)
      (match solo_value samples "strategem_store_enabled" with
      | Some v when v > 0.0 ->
        let sv m = Option.value ~default:0.0 (solo_value samples m) in
        let hits = sv "strategem_store_pool_hits_total" in
        let misses = sv "strategem_store_pool_misses_total" in
        let hit_rate =
          if hits +. misses > 0.0 then 100.0 *. hits /. (hits +. misses)
          else 0.0
        in
        Fmt.pr
          "store facts %.0f  pages %.0f/%.0f pool  hit %.1f%%  \
           evictions %.0f  wal %.0fB  ckpt age %.0fs@."
          (sv "strategem_store_facts")
          (sv "strategem_store_pages")
          (sv "strategem_store_pool_pages")
          hit_rate
          (sv "strategem_store_pool_evictions_total")
          (sv "strategem_store_wal_bytes")
          (sv "strategem_store_checkpoint_age_seconds")
      | _ -> ());
      (* Per-loop fleet columns, present once a fleet server is scraped. *)
      let loop_ids =
        List.filter_map
          (fun s ->
            if s.Obs.Expo.metric = "strategem_loop_conns_open" then
              Option.bind
                (List.assoc_opt "loop" s.Obs.Expo.labels)
                int_of_string_opt
            else None)
          samples
        |> List.sort_uniq Int.compare
      in
      let lv metric loop =
        List.find_opt
          (fun s ->
            s.Obs.Expo.metric = metric
            && List.assoc_opt "loop" s.Obs.Expo.labels
               = Some (string_of_int loop))
          samples
        |> Option.fold ~none:0.0 ~some:(fun s -> s.Obs.Expo.value)
      in
      List.iter
        (fun l ->
          Fmt.pr "loop %-3d conns %.0f  wakeups %.0f  inflight %.0f@." l
            (lv "strategem_loop_conns_open" l)
            (lv "strategem_loop_wakeups_total" l)
            (lv "strategem_loop_pipeline_depth" l))
        loop_ids;
      Fmt.pr "%-32s %8s %8s %7s %10s %9s@." "FORM" "QUERIES" "SAMPLES"
        "CLIMBS" "EPSILON" "FINISHED";
      List.iter
        (fun f ->
          Fmt.pr "%-32s %8.0f %8.0f %7.0f %10s %9s@." f
            (v "strategem_queries_total" f)
            (v "strategem_learner_samples" f)
            (v "strategem_learner_climbs" f)
            (eps_str (v "strategem_learner_epsilon" f))
            (if v "strategem_learner_finished" f > 0.0 then "yes" else "no"))
        forms)
  | Ok (status, _) ->
    Fmt.epr "strategem watch: HTTP %d from /metrics@." status;
    exit 1

let run_watch host port interval count =
  let clear = Unix.isatty Unix.stdout in
  let rec loop n =
    if clear then Fmt.pr "\027[2J\027[H%!";
    watch_tick ~host ~port;
    Fmt.pr "%!";
    if count = 0 || n < count then begin
      if not clear then Fmt.pr "@.";
      Thread.delay interval;
      loop (n + 1)
    end
  in
  loop 1

let watch_cmd =
  let interval =
    Arg.(
      value & opt float 1.0
      & info [ "interval"; "n" ] ~docv:"SECONDS"
          ~doc:"Seconds between scrapes (default 1).")
  in
  let count =
    Arg.(
      value & opt int 0
      & info [ "count"; "c" ] ~docv:"N"
          ~doc:"Stop after N scrapes (0 = run until interrupted).")
  in
  Cmd.v
    (Cmd.info "watch"
       ~doc:
         "Poll a strategem daemon's /metrics and render a live per-form \
          learner-convergence table (queries, samples, climbs, the \
          converging epsilon bound, and whether learning has finished).")
    Term.(const run_watch $ host_arg $ metrics_port_arg $ interval $ count)

(* ---------- flight / tail ---------- *)

let fetch_flight ~host ~port =
  match http_get ~host ~port "/debug/flight" with
  | Error msg -> Error msg
  | Ok (200, body) -> Ok body
  | Ok (status, _) ->
    Error (Printf.sprintf "HTTP %d from /debug/flight" status)

(* The retained entries of a parsed /debug/flight envelope, as
   (seq, summary fields, span) triples sorted by retention sequence. *)
let retained_entries doc =
  let entries =
    match doc with
    | Trace.Json.Obj fields -> (
      match List.assoc_opt "retained" fields with
      | Some (Trace.Json.Arr es) -> es
      | _ -> [])
    | _ -> []
  in
  List.filter_map
    (fun e ->
      match e with
      | Trace.Json.Obj ef ->
        let num k =
          match List.assoc_opt k ef with
          | Some (Trace.Json.Num raw) -> int_of_string_opt raw
          | _ -> None
        in
        let str k =
          match List.assoc_opt k ef with
          | Some (Trace.Json.Str s) -> s
          | _ -> ""
        in
        Option.bind (num "seq") (fun seq ->
            Option.map
              (fun span ->
                ( seq,
                  (Option.value ~default:0 (num "loop"),
                   Option.value ~default:0 (num "conn"),
                   Option.value ~default:0 (num "rid"),
                   str "reason",
                   Option.value ~default:0 (num "total_us")),
                  span ))
              (match List.assoc_opt "span" ef with
              | Some (Trace.Json.Obj _ as sv) -> (
                match Trace.of_json_value sv with
                | sp -> Some sp
                | exception Trace.Parse_error _ -> None)
              | _ -> None))
      | _ -> None)
    entries
  |> List.sort (fun (a, _, _) (b, _, _) -> Int.compare a b)

let run_flight host port chrome out =
  match fetch_flight ~host ~port with
  | Error msg ->
    Fmt.epr "strategem flight: %s@." msg;
    exit 1
  | Ok body ->
    let doc =
      if not chrome then body
      else
        match Trace.Json.parse body with
        | exception Trace.Parse_error msg ->
          Fmt.epr "strategem flight: bad dump: %s@." msg;
          exit 1
        | parsed ->
          retained_entries parsed
          |> List.map (fun (_, _, span) -> span)
          |> Trace.to_chrome
    in
    (match out with
    | None -> print_endline doc
    | Some path ->
      Out_channel.with_open_bin path (fun oc ->
          output_string oc doc;
          output_char oc '\n');
      Fmt.pr "strategem flight: wrote %s@." path)

let flight_cmd =
  let chrome =
    Arg.(
      value & flag
      & info [ "chrome" ]
          ~doc:
            "Convert the dump's retained span trees to Chrome \
             trace-event / Perfetto JSON (load it at chrome://tracing or \
             ui.perfetto.dev; each event loop gets its own track) \
             instead of printing the raw envelope.")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out"; "o" ] ~docv:"FILE"
          ~doc:"Write to FILE instead of stdout.")
  in
  Cmd.v
    (Cmd.info "flight"
       ~doc:
         "Dump a strategem daemon's flight recorder (per-loop lifecycle \
          event rings plus tail-retained slow/error/shed traces) over \
          GET /debug/flight, raw or as Chrome trace-event JSON.")
    Term.(const run_flight $ host_arg $ metrics_port_arg $ chrome $ out)

let run_tail host port interval count =
  let last = ref (-1) in
  let tick () =
    match fetch_flight ~host ~port with
    | Error msg ->
      Fmt.epr "strategem tail: %s@." msg;
      exit 1
    | Ok body -> (
      match Trace.Json.parse body with
      | exception Trace.Parse_error msg ->
        Fmt.epr "strategem tail: bad dump: %s@." msg;
        exit 1
      | parsed ->
        List.iter
          (fun (seq, (loop, conn, rid, reason, total_us), span) ->
            if seq > !last then begin
              last := seq;
              Fmt.pr "#%d loop=%d conn=%d rid=%d %s %dus %s@." seq loop
                conn rid reason total_us (Trace.to_json span)
            end)
          (retained_entries parsed))
  in
  let rec loop n =
    tick ();
    Fmt.pr "%!";
    if count = 0 || n < count then begin
      Thread.delay interval;
      loop (n + 1)
    end
  in
  loop 1

let tail_cmd =
  let interval =
    Arg.(
      value & opt float 1.0
      & info [ "interval"; "n" ] ~docv:"SECONDS"
          ~doc:"Seconds between polls (default 1).")
  in
  let count =
    Arg.(
      value & opt int 0
      & info [ "count"; "c" ] ~docv:"N"
          ~doc:"Stop after N polls (0 = run until interrupted).")
  in
  Cmd.v
    (Cmd.info "tail"
       ~doc:
         "Live-stream the traces a strategem daemon's tail-based \
          retention keeps (slow, error, and shed requests): poll \
          /debug/flight and print each newly retained span tree once, \
          as '#seq loop= conn= rid= reason total_us <span JSON>'.")
    Term.(const run_tail $ host_arg $ metrics_port_arg $ interval $ count)

(* ---------- demo ---------- *)

let run_demo () =
  let result = Workload.University.build () in
  let t1 = Workload.University.theta1 result in
  let t2 = Workload.University.theta2 result in
  let model = Workload.University.model_section2 result in
  Fmt.pr "Figure 1 knowledge base:@.%s@." Workload.University.rules_text;
  Fmt.pr "Theta1 = %a  C = %.2f@." Spec.pp_dfs t1 (fst (Cost.exact_dfs t1 model));
  Fmt.pr "Theta2 = %a  C = %.2f@." Spec.pp_dfs t2 (fst (Cost.exact_dfs t2 model));
  let mix, _ = Workload.University.minors_mix result in
  let oracle =
    Core.Oracle.of_queries result.Build.graph mix (Stats.Rng.create 1L)
  in
  let pib = Core.Pib.create t1 in
  let climbs = Core.Pib.run pib oracle ~n:3000 in
  Fmt.pr
    "under the adversarial 'minors' query mix, PIB switched %d time(s); \
     final: %a@."
    (List.length climbs) Spec.pp_dfs (Core.Pib.current pib)

let demo_cmd =
  Cmd.v
    (Cmd.info "demo" ~doc:"The Figure-1 walkthrough.")
    Term.(const run_demo $ const ())

let main_cmd =
  Cmd.group
    (Cmd.info "strategem" ~version:"1.0.0"
       ~doc:
         "Learning efficient query processing strategies (Greiner, PODS \
          1992).")
    [
      query_cmd; graph_cmd; optimal_cmd; smith_cmd; learn_cmd; eval_cmd;
      explain_cmd; serve_cmd; client_cmd; scrape_cmd; watch_cmd; flight_cmd;
      tail_cmd; demo_cmd;
    ]

let () = exit (Cmd.eval main_cmd)
