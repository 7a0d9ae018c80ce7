(** Per-query tracing: a span tree in paper-cost units and wall-clock.

    A {e span} is one step of answering a query — an SLD resolution step,
    a strategy-execution arc attempt, a learner update, a serve-path
    phase. Spans carry a {e paper cost} (the unit the paper's cost model
    charges: 1 per reduction or retrieval in the SLD engine, [f(arc)] per
    arc attempt in the abstract executor) and wall-clock nanoseconds, and
    nest into a tree rooted at the query.

    The central invariant (checked by the [TRACE] wire verb and the test
    suite): the summed paper-cost of the spans under a query's [exec]
    phase equals the cost {!Core.Monitor} records for that query — the
    tracer is a built-in consistency check on the cost model.

    {b Disabled tracing is free.} A tracer is either {!null} or
    collecting; every operation on {!null} is a single tag test that
    allocates nothing and returns the shared {!dummy} span. Hot paths
    thread a tracer unconditionally and stay zero-allocation when tracing
    is off; guard only the {e construction of labels/attributes} behind
    {!enabled}.

    Span kinds used by this repo (free-form strings, not enforced):
    [query] (root), [serve] (daemon root), [sld], [exec], [learn]
    (phases), [reduction], [retrieval], [naf] (SLD events, cost 1/1/0),
    [arc] (executor events, cost [f(arc)]), [wait] (request-queue
    wait). *)

type span
type t

(** The disabled tracer: every operation is a no-op. *)
val null : t

(** A fresh collecting tracer (no root span yet). *)
val make : unit -> t

val enabled : t -> bool

(** The shared inert span returned by every operation on {!null}.
    Mutating operations applied to it via {!null} are no-ops. *)
val dummy : span

(** {1 Recording} *)

(** [span name] builds a span outside any tracer from values the caller
    already holds — the request-lifecycle layer reconstructs its span
    skeletons from recorded timestamps this way. No clock is read;
    [start_ns]/[wall_ns] default to 0, [attrs]/[children] are taken
    oldest-first (the order {!attrs}/{!children} report). *)
val span :
  ?kind:string ->
  ?start_ns:int64 ->
  ?wall_ns:int64 ->
  ?cost:float ->
  ?attrs:(string * string) list ->
  ?children:span list ->
  string ->
  span

(** [root t name] starts the tracer's root span (replacing any previous
    root). *)
val root : t -> ?kind:string -> string -> span

(** [push t parent name] starts a child span of [parent]. *)
val push : t -> span -> ?kind:string -> string -> span

(** [event t parent name] — an instant child span (started and finished
    at once), the representation of SLD/executor steps whose duration is
    not separately meaningful. *)
val event :
  t ->
  span ->
  ?kind:string ->
  ?cost:float ->
  ?attrs:(string * string) list ->
  string ->
  unit

(** Charge paper-cost units directly to a span. *)
val add_cost : t -> span -> float -> unit

(** Attach a key/value attribute (last write per key wins on render). *)
val set_attr : t -> span -> string -> string -> unit

(** Stop the span's wall clock. A span never finished reports the wall
    time of an instant event (0 ns). *)
val finish : t -> span -> unit

val root_span : t -> span option

(** {1 Reading} *)

val name : span -> string
val kind : span -> string

(** Paper cost charged directly to this span (children not included). *)
val cost : span -> float

val children : span -> span list

val attrs : span -> (string * string) list
val attr : span -> string -> string option
val start_ns : span -> int64
val wall_ns : span -> int64

(** Summed paper cost of the span and its whole subtree. *)
val total_cost : span -> float

(** All spans of the subtree (preorder) whose kind matches. *)
val find_kind : span -> string -> span list

(** Structural equality: name, kind, cost, timestamps, attrs, children.
    (Used by the JSON round-trip tests.) *)
val equal : span -> span -> bool

(** {1 Rendering} *)

(** Indented text tree: [name [kind] cost=... {attrs}] — deliberately
    free of wall-clock times so output is deterministic (timings live in
    the JSON rendering). *)
val pp_tree : Format.formatter -> span -> unit

(** One-line JSON object:
    [{"name":..,"kind":..,"cost":..,"start_ns":..,"wall_ns":..,
      "attrs":{..},"children":[..]}]
    ([attrs]/[children] omitted when empty). *)
val to_json : span -> string

exception Parse_error of string

(** Parse {!to_json} output back into a span ({!equal} to the original).
    Raises {!Parse_error} on malformed input. *)
val of_json : string -> span

(** Escape a string for embedding in a JSON string literal (double
    quotes not included). *)
val json_escape : string -> string

(** The minimal JSON reader behind {!of_json} — just the dialect this
    repo's renderers emit (objects, arrays, strings, numbers, booleans,
    null). Exposed so consumers of composite documents that {e embed}
    span objects (the [FLIGHT] verb's reply, [/debug/flight]) can parse
    the envelope and hand the span values to {!of_json_value}. *)
module Json : sig
  type value =
    | Obj of (string * value) list
    | Arr of value list
    | Str of string
    | Num of string  (** raw text, so int64 timestamps keep precision *)
    | Bool of bool
    | Jnull

  (** Raises {!Parse_error} on malformed input or trailing bytes. *)
  val parse : string -> value
end

(** Like {!of_json}, from an already-parsed {!Json.value}. *)
val of_json_value : Json.value -> span

(** Chrome trace-event / Perfetto JSON ([{"traceEvents":[...]}]): every
    span of every tree becomes one complete ("X"-phase) event with
    microsecond [ts]/[dur] from [start_ns]/[wall_ns], [pid] 1, and [tid]
    taken from the span's [tid_attr] attribute (default ["loop"], 0 when
    absent) — so a fleet trace lanes per event loop. Paper cost and all
    attributes ride in [args]. *)
val to_chrome : ?tid_attr:string -> span list -> string
