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

let answer ?(tracer = Trace.null) ?parent ?cache ?memo t ~db q =
  let entry = find_or_create t q in
  (* Cache service is visible in traces as an event on the caller's span:
     a hit records what the fill paid; a miss is a marker. *)
  let cache_event kind attrs =
    match parent with
    | Some sp when Trace.enabled tracer ->
      Trace.event tracer sp ~kind ~attrs (D.Atom.to_string q)
    | _ -> ()
  in
  let ans, strategy =
    with_live entry (fun live ->
        let hit =
          match cache with
          | Some c -> Cache.Answers.find c ~db q
          | None -> None
        in
        let a =
          match hit with
          | Some h ->
            cache_event "cache_hit"
              [
                ("saved_reductions", string_of_int h.Cache.Answers.reductions);
                ("saved_retrievals", string_of_int h.Cache.Answers.retrievals);
                ("fill_cost", Printf.sprintf "%g" h.Cache.Answers.cost);
              ];
            Core.Live.answer_cached ~tracer ?parent live ~db
              ~result:h.Cache.Answers.result q
          | None ->
            if Option.is_some cache then cache_event "cache_miss" [];
            let a = Core.Live.answer ~tracer ?parent ?memo live ~db q in
            (* The fill records the execution that answered: its paid
               arcs and its paper cost. *)
            (match cache with
            | Some c when not a.Core.Live.stats.D.Sld.truncated ->
              (* A truncated non-answer (only a fallback form's SLD
                 truncates) is "unknown", not "no" — never cache it. *)
              Cache.Answers.store c ~db q ~result:a.Core.Live.result
                ~reductions:a.Core.Live.stats.D.Sld.reductions
                ~retrievals:a.Core.Live.stats.D.Sld.retrievals
                ~cost:a.Core.Live.cost
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
