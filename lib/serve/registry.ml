module D = Datalog
module By_pred = Map.Make (Int)

type entry = {
  key : string;
  form : D.Atom.t;
  live : Core.Live.t;
  lock : Mutex.t;
  metrics : Metrics.form;
}

type t = {
  lock : Mutex.t;  (* serializes entry creation *)
  rulebase : D.Rulebase.t;
  learner : Core.Learner.kind;
  config : Core.Learner.config;
  metrics : Metrics.t;
  (* Entries by predicate id; a bucket's entries differ in arity or
     adornment. The map is immutable and replaced whole (under [lock])
     when an entry is added, so a lookup reads it without a lock. *)
  forms : entry list By_pred.t Atomic.t;
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

(* Injective: [[A-Za-z0-9_]] bytes are kept and every other byte is
   written as [-] and two lowercase hex digits, so ['a b'] and ['a-b']
   get distinct keys ([a-20b_1_b], [a-2db_1_b]). *)
let escape_name name =
  let buf = Buffer.create (String.length name) in
  String.iter
    (function
      | ('a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_') as c ->
        Buffer.add_char buf c
      | c -> Printf.bprintf buf "-%02x" (Char.code c))
    name;
  Buffer.contents buf

let key_of_form (form : D.Atom.t) =
  let adornment =
    D.Atom.adornment form
    |> List.map (function `B -> "b" | `F -> "f")
    |> String.concat ""
  in
  Printf.sprintf "%s_%d%s%s"
    (escape_name (D.Symbol.to_string form.D.Atom.pred))
    (D.Atom.arity form)
    (if adornment = "" then "" else "_")
    adornment

(* Arc labels carry predicate names, and a quoted name may hold line
   breaks: the rendering is flattened to one line, as it goes into reply
   lines (STRATEGY, STATS). *)
let render live =
  Protocol.one_line
    (Format.asprintf "%a" Strategy.Spec.pp_dfs (Core.Live.strategy live))

(* A plain lock/unlock pair around [f] — no [Fun.protect] closure — that
   still releases the lock if [f] raises. *)
let locked lock live f =
  Mutex.lock lock;
  match f live with
  | v ->
    Mutex.unlock lock;
    v
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    Mutex.unlock lock;
    Printexc.raise_with_backtrace e bt

let with_live (entry : entry) f = locked entry.lock entry.live f
let strategy_string entry = with_live entry render

(* Same arity, and a constant exactly where the form has its bound
   marker: the query has this form. Compares in place, allocating
   nothing. *)
let rec same_adornment args form_args =
  match (args, form_args) with
  | [], [] -> true
  | a :: rest, f :: form_rest ->
    Bool.equal (D.Term.is_const a) (D.Term.is_const f)
    && same_adornment rest form_rest
  | _ -> false

let rec find_form (q : D.Atom.t) = function
  | [] -> raise Not_found
  | e :: rest ->
    if same_adornment q.D.Atom.args e.form.D.Atom.args then e
    else find_form q rest

(* Raises [Not_found] when the query's form has no entry yet. *)
let lookup t (q : D.Atom.t) =
  find_form q (By_pred.find (D.Symbol.id q.D.Atom.pred) (Atomic.get t.forms))

let all_entries t =
  By_pred.fold (fun _ es acc -> es @ acc) (Atomic.get t.forms) []

let create ?(learner = `Pib) ?(config = Core.Learner.default_config) ~rulebase
    metrics =
  {
    lock = Mutex.create ();
    rulebase;
    learner;
    config;
    metrics;
    forms = Atomic.make By_pred.empty;
  }

let progress live = Core.Learner.progress (Core.Live.learner live)

let add_entry t atom =
  Mutex.lock t.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.lock)
    (fun () ->
      match lookup t atom with
      | e -> e (* another domain added it first *)
      | exception Not_found ->
        let form = form_of_query atom in
        let key = key_of_form form in
        let live =
          Core.Live.create ~learner:t.learner ~config:t.config
            ~rulebase:t.rulebase ~query_form:form ()
        in
        let lock = Mutex.create () in
        (* the form's strategy and learner gauges are read off the
           learner when STATS or /metrics renders: one source per
           statistic, and nothing paid per observation *)
        let metrics =
          Metrics.form t.metrics key
            ~strategy:(fun () -> locked lock live render)
            ~progress:(fun () -> locked lock live progress)
        in
        let e = { key; form; live; lock; metrics } in
        let id = D.Symbol.id atom.D.Atom.pred in
        let forms = Atomic.get t.forms in
        let bucket = Option.value ~default:[] (By_pred.find_opt id forms) in
        Atomic.set t.forms (By_pred.add id (e :: bucket) forms);
        e)

let find_or_create t atom =
  match lookup t atom with e -> e | exception Not_found -> add_entry t atom

let learner_kind t = t.learner

(* Cache service is visible in traces as an event on the caller's span:
   a hit records what the fill paid; a miss is a marker. Only called
   when tracing, so the attrs are never rendered otherwise. *)
let cache_event tracer sp q kind attrs =
  Trace.event tracer sp ~kind ~attrs (D.Atom.to_string q)

let answer_locked ~tracer ?parent ?cache ?memo entry ~db q =
  let live = entry.live in
  let hit =
    match cache with Some c -> Cache.Answers.find c ~db q | None -> None
  in
  match hit with
  | Some h ->
    (match parent with
    | Some sp when Trace.enabled tracer ->
      cache_event tracer sp q "cache_hit"
        [
          ("fill_reductions", string_of_int h.Cache.Answers.reductions);
          ("fill_retrievals", string_of_int h.Cache.Answers.retrievals);
          ("fill_cost", Printf.sprintf "%g" h.Cache.Answers.cost);
        ]
    | _ -> ());
    Core.Live.answer_cached ~tracer ?parent live ~db
      ~result:h.Cache.Answers.result q
  | None ->
    (match (parent, cache) with
    | Some sp, Some _ when Trace.enabled tracer ->
      cache_event tracer sp q "cache_miss" []
    | _ -> ());
    let a = Core.Live.answer ~tracer ?parent ?memo live ~db q in
    (* The fill records the execution that answered: its paid arcs and
       its paper cost. *)
    (match cache with
    | Some c when not a.Core.Live.stats.D.Sld.truncated ->
      (* A truncated non-answer (only a fallback form's SLD truncates)
         is "unknown", not "no" — never cache it. *)
      Cache.Answers.store c ~db q ~result:a.Core.Live.result
        ~reductions:a.Core.Live.stats.D.Sld.reductions
        ~retrievals:a.Core.Live.stats.D.Sld.retrievals ~cost:a.Core.Live.cost
    | _ -> ());
    a

(* [with_live] written out, so the per-query path builds no closure. *)
let answer_entry ?(tracer = Trace.null) ?parent ?cache ?memo (entry : entry)
    ~db q =
  Mutex.lock entry.lock;
  match answer_locked ~tracer ?parent ?cache ?memo entry ~db q with
  | a ->
    Mutex.unlock entry.lock;
    a
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    Mutex.unlock entry.lock;
    Printexc.raise_with_backtrace e bt

let answer ?tracer ?parent ?cache ?memo t ~db q =
  answer_entry ?tracer ?parent ?cache ?memo (find_or_create t q) ~db q

let entries t =
  List.sort (fun a b -> String.compare a.key b.key) (all_entries t)

let key e = e.key
let form e = e.form
let metrics (e : entry) = e.metrics
