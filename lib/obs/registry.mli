(** The labeled metrics registry: counters, gauges, and log-scale
    histograms, rendered by {!Expo} in Prometheus text exposition format
    and read by the [STATS] facade in [Serve.Metrics].

    Concurrency: family and child creation take the registry lock (cold
    path — cache the child handle); updates touch only the child itself.
    Counters and gauges are atomics, histograms take a per-child mutex,
    so every update is O(1) and two distinct time series never contend —
    the lock sharding is one shard per child. *)

type t
type registry := t

val create : unit -> t

(** Register a hook run by {!collect} (and so by every [/metrics] render
    and every [STATS]) before values are read — the place to refresh
    mirrored values (cache counters, uptime, windowed high-waters). *)
val on_collect : t -> (unit -> unit) -> unit

(** Run the collect hooks, oldest first. *)
val collect : t -> unit

(** Prometheus metric-name validity ([[a-zA-Z_:][a-zA-Z0-9_:]*]) — used
    by family creation and by {!Expo.lint}. *)
val name_re_ok : string -> bool

(** Label-name validity ([[a-zA-Z_][a-zA-Z0-9_]*]). *)
val label_re_ok : string -> bool

(** {1 Bucket scheme}

    All histograms share the serve path's log-scale scheme: bucket [i]
    holds observations in [[2^i, 2^(i+1))] (of whatever unit the metric
    uses; µs throughout this repo), with one overflow bucket at the
    end. *)

val n_buckets : int

(** Bucket index for a value. *)
val bucket_of_value : float -> int

(** Upper bound of bucket [i]; [bucket_upper n_buckets] is the overflow
    bucket's (notional) bound. *)
val bucket_upper : int -> int

(** {1 Instruments}

    Family creation raises [Invalid_argument] on an invalid metric or
    label name, or a duplicate family name. [labels] takes the label
    {e values}, positionally matching the family's label names, and
    creates the child on first use. *)

module Counter : sig
  type fam
  type t

  val v : registry -> help:string -> ?labels:string list -> string -> fam
  val labels : fam -> string list -> t

  (** The single child of an unlabeled family. *)
  val solo : fam -> t

  val inc : t -> unit

  (** Raises [Invalid_argument] on a negative increment. *)
  val add : t -> int -> unit

  (** Mirror an external monotonic counter: sets the value, never
      moving it backwards. *)
  val set : t -> int -> unit

  val value : t -> int
end

module Gauge : sig
  type fam
  type t

  val v : registry -> help:string -> ?labels:string list -> string -> fam
  val labels : fam -> string list -> t
  val solo : fam -> t
  val set : t -> float -> unit
  val add : t -> float -> unit

  (** Keep a running maximum (no-op unless the value increases). *)
  val set_max : t -> float -> unit

  val value : t -> float

  (** Read and zero atomically — the windowed high-water idiom: the
      window is "since the last scrape". *)
  val read_reset : t -> float
end

module Histogram : sig
  type fam
  type t

  val v : registry -> help:string -> ?labels:string list -> string -> fam
  val labels : fam -> string list -> t
  val solo : fam -> t
  val observe : t -> float -> unit

  (** [observe_ns h ns] observes a nanosecond duration in µs
      ([ns / 1000], negative clamped to 0) without allocating. *)
  val observe_ns : t -> int -> unit

  type snapshot = { count : int; sum : float; buckets : int array }

  (** A consistent point-in-time copy. *)
  val snapshot : t -> snapshot

  val mean : snapshot -> float

  (** Upper bound of the smallest bucket covering quantile [q] — exact
      to within one bucket boundary. [0] on an empty histogram. *)
  val quantile : snapshot -> float -> int
end

(** {1 Reading} *)

type kind = Counter_k | Gauge_k | Histogram_k

type sample_value =
  | Sample_counter of int
  | Sample_gauge of float
  | Sample_histogram of Histogram.snapshot

type sample = { sample_labels : string list; value : sample_value }

type family_view = {
  name : string;
  help : string;
  label_names : string list;
  kind : kind;
  samples : sample list;  (** sorted by label values *)
}

(** A consistent-enough view for rendering: families sorted by name,
    children by label values. Does {e not} run the collect hooks — call
    {!collect} first (as {!Expo.render} does). *)
val view : t -> family_view list
