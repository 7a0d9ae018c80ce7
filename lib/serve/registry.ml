module D = Datalog

type entry = {
  key : string;
  form : D.Atom.t;
  live : Core.Live.t;
  lock : Mutex.t;
}

type t = {
  lock : Mutex.t;
  rulebase : D.Rulebase.t;
  learner : Core.Learner.kind;
  config : Core.Learner.config;
  metrics : Metrics.t;
  entries : (string, entry) Hashtbl.t;
}

let create ?(learner = `Pib) ?(config = Core.Learner.default_config) ~rulebase
    metrics =
  {
    lock = Mutex.create ();
    rulebase;
    learner;
    config;
    metrics;
    entries = Hashtbl.create 8;
  }

let form_of_query (q : D.Atom.t) =
  let args =
    List.mapi
      (fun i t ->
        if D.Term.is_const t then D.Term.const "q"
        else D.Term.var (Printf.sprintf "X%d" i))
      q.D.Atom.args
  in
  D.Atom.make_sym q.D.Atom.pred args

let key_of_form (form : D.Atom.t) =
  let sanitize c =
    match c with
    | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c
    | _ -> '-'
  in
  let adornment =
    D.Atom.adornment form
    |> List.map (function `B -> "b" | `F -> "f")
    |> String.concat ""
  in
  Printf.sprintf "%s_%d%s%s"
    (String.map sanitize (D.Symbol.to_string form.D.Atom.pred))
    (D.Atom.arity form)
    (if adornment = "" then "" else "_")
    adornment

let render live =
  Format.asprintf "%a" Strategy.Spec.pp_dfs (Core.Live.strategy live)

let with_live (entry : entry) f =
  Mutex.lock entry.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock entry.lock) (fun () ->
      f entry.live)

let strategy_string entry = with_live entry render

(* Forward the learner's telemetry into the per-form convergence
   gauges. The hook fires on every observation (bound check), climb,
   and adopted conjecture — the gauges always show the latest
   reading. *)
let publish_progress metrics ~form (p : Core.Learner.progress) =
  Metrics.learner_progress metrics ~form
    ~samples:p.Core.Learner.samples
    ~samples_total:p.Core.Learner.samples_total
    ~climbs:p.Core.Learner.climbs ~epsilon:p.Core.Learner.epsilon
    ~delta:p.Core.Learner.delta ~finished:p.Core.Learner.finished

let install_telemetry metrics ~form live =
  Core.Live.on_event live (fun ev ->
      match ev with
      | Core.Learner.Observed p
      | Core.Learner.Climbed p
      | Core.Learner.Conjectured p -> publish_progress metrics ~form p);
  publish_progress metrics ~form
    (Core.Learner.progress (Core.Live.learner live))

let find_or_create t atom =
  let form = form_of_query atom in
  let key = key_of_form form in
  Mutex.lock t.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.lock)
    (fun () ->
      match Hashtbl.find_opt t.entries key with
      | Some e -> e
      | None ->
        let live =
          Core.Live.create ~learner:t.learner ~config:t.config
            ~rulebase:t.rulebase ~query_form:form ()
        in
        let e = { key; form; live; lock = Mutex.create () } in
        Hashtbl.add t.entries key e;
        install_telemetry t.metrics ~form:key live;
        Metrics.set_form_strategy t.metrics ~form:key (render live);
        e)

let learner_kind t = t.learner

(* Cap on the distinct answers a cache fill enumerates past the first
   success node (subsumption mode). Bounds both the fill's tail work and
   the row scans later derived probes pay; a set cut by the cap is stored
   incomplete, so it can still prove membership but never absence. *)
let subsume_enumerate_cap = 1024

(* Only fully-free query forms (every argument a variable) enumerate
   their answer set: they are the natural generalization roots — one per
   predicate/arity modulo repeated variables — so the enumeration
   investment is paid O(#forms) times, not per distinct query. Partially
   bound queries still enter the subsumption index with their first
   answer (good for derived "no"s and ground children), at no extra
   cost. *)
let enumerable (q : D.Atom.t) =
  q.D.Atom.args <> []
  && List.for_all (fun t -> not (D.Term.is_const t)) q.D.Atom.args

let answer ?(tracer = Trace.null) ?parent ?cache ?memo t ~db q =
  let entry = find_or_create t q in
  (* Cache service is visible in traces as an event on the caller's span:
     a hit records what the fill paid and was saved; a miss is a marker. *)
  let cache_event kind attrs =
    match parent with
    | Some sp when Trace.enabled tracer ->
      Trace.event tracer sp ~kind ~attrs (D.Atom.to_string q)
    | _ -> ()
  in
  let subsume =
    match cache with
    | Some c -> Cache.Answers.subsume_enabled c
    | None -> false
  in
  let ans, strategy =
    with_live entry (fun live ->
        let probe_t0 = if subsume then Unix.gettimeofday () else 0.0 in
        let hit =
          match cache with
          | Some c -> Cache.Answers.find c ~db q
          | None -> None
        in
        (* The subsumption probe piggybacks on the exact lookup; its
           latency (candidate walk + row filtering) is only distinguishable
           from the exact path when the exact key missed. *)
        let probe_us () = (Unix.gettimeofday () -. probe_t0) *. 1e6 in
        let a =
          match hit with
          | Some h ->
            if subsume && h.Cache.Answers.derived then
              Metrics.cache_filter t.metrics (probe_us ());
            cache_event "cache_hit"
              ([
                 ( "saved_reductions",
                   string_of_int h.Cache.Answers.reductions );
                 ( "saved_retrievals",
                   string_of_int h.Cache.Answers.retrievals );
                 ("fill_cost", Printf.sprintf "%g" h.Cache.Answers.cost);
               ]
              @
              if h.Cache.Answers.derived then [ ("derived", "true") ]
              else []);
            Core.Live.answer_cached ~tracer ?parent
              ~derived:h.Cache.Answers.derived live ~db
              ~result:h.Cache.Answers.result q
          | None ->
            if subsume then Metrics.cache_filter t.metrics (probe_us ());
            if Option.is_some cache then cache_event "cache_miss" [];
            let enumerate =
              if subsume && enumerable q then subsume_enumerate_cap else 0
            in
            let a =
              Core.Live.answer ~tracer ?parent ?memo ~enumerate live ~db q
            in
            (* The fill records the execution that answered: its paid
               arcs, its paper cost and, for a root, its enumerated
               answer set. *)
            (match cache with
            | Some c when not a.Core.Live.stats.D.Sld.truncated ->
              (* A truncated non-answer (only a fallback form's SLD
                 truncates) is "unknown", not "no" — never cache it. *)
              let answers =
                Option.map
                  (fun (e : D.Sld.enum) -> (e.D.Sld.answers, e.D.Sld.complete))
                  a.Core.Live.enumerated
              in
              Cache.Answers.store c ~db ?answers q ~result:a.Core.Live.result
                ~reductions:a.Core.Live.stats.D.Sld.reductions
                ~retrievals:a.Core.Live.stats.D.Sld.retrievals
                ~cost:a.Core.Live.cost;
              (* Memoized ground-subgoal verdicts seeded from the general
                 run: every enumerated answer instantiates the query to a
                 ground fact-of-the-form that a fallback form's later SLD
                 runs can take as proved. *)
              (match (memo, a.Core.Live.enumerated) with
              | Some m, Some en ->
                let token = D.Database.token db
                and gen = D.Database.generation db in
                List.iter
                  (fun s ->
                    let inst = D.Subst.apply_atom s q in
                    if D.Atom.is_ground inst then
                      D.Sld.Memo.add m ~token ~gen inst true)
                  en.D.Sld.answers
              | _ -> ())
            | _ -> ());
            a
        in
        (a, if a.Core.Live.switched then Some (render live) else None))
  in
  Option.iter
    (fun s -> Metrics.set_form_strategy t.metrics ~form:entry.key s)
    strategy;
  ans

let entries t =
  Mutex.lock t.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.lock)
    (fun () -> Hashtbl.fold (fun _ e acc -> e :: acc) t.entries [])
  |> List.sort (fun a b -> String.compare a.key b.key)

let key e = e.key
let form e = e.form

let publish_strategies t =
  List.iter
    (fun e ->
      Metrics.set_form_strategy t.metrics ~form:e.key (strategy_string e))
    (entries t)
