(** Prometheus text exposition format 0.0.4: rendering, linting, and a
    small sample parser.

    Rendered output is what [GET /metrics] serves; {!lint} is the
    checker behind [strategem scrape --lint] and the CI cram test;
    {!parse_samples} feeds [strategem watch]. *)

(** Prometheus metric-name validity ([[a-zA-Z_:][a-zA-Z0-9_:]*]). *)
val name_re_ok : string -> bool

(** Label-name validity ([[a-zA-Z_][a-zA-Z0-9_]*]). *)
val label_re_ok : string -> bool

type kind = Counter | Gauge | Histogram

(** A sample's value: counters print [Int], gauges [Float] (through
    {!float_str}), histograms [Hist]. *)
type value = Int of int | Float of float | Hist of Histogram.snapshot

(** One family: its samples pair label values (positionally matching
    [label_names]) with a value. A family with no samples renders only
    its [# HELP] and [# TYPE] lines. *)
type family = {
  name : string;
  help : string;
  kind : kind;
  label_names : string list;
  samples : (string list * value) list;
}

(** Render every family, sorted by name, as [# HELP] / [# TYPE] plus
    one sample line per series, sorted by label values (histograms as
    cumulative [_bucket{le="..."}] series ending in [le="+Inf"], then
    [_sum] and [_count]). *)
val render : family list -> string

(** Float formatting as Prometheus expects: ["+Inf"], ["-Inf"], ["NaN"],
    integers without a decimal point, else shortest-ish decimal. *)
val float_str : float -> string

type parsed_sample = {
  metric : string;
  labels : (string * string) list;
  value : float;
}

(** Parse the sample lines of an exposition document, skipping comments
    and blanks. Raises {!Bad_line} on a malformed line. *)
val parse_samples : string -> parsed_sample list

exception Bad_line of string

(** Check an exposition document: every sampled family has [# HELP] and
    [# TYPE] (valid and unique), metric/label names are well-formed, no
    duplicate [(name, labelset)] sample, and histograms are consistent —
    cumulative non-decreasing buckets, an [le="+Inf"] bucket equal to
    [_count], and [_sum]/[_count] present. Returns all violations. *)
val lint : string -> (unit, string list) result
