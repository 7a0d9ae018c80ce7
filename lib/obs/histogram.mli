(** Log-scale histograms, the one instrument the serve path writes on
    every request: bucket [i] holds observations in [[2^i, 2^(i+1))]
    (of whatever unit the metric uses; µs throughout this repo), with
    one overflow bucket at the end. Rendered by {!Expo} and read by the
    [STATS] facade in [Serve.Metrics].

    Concurrency: each histogram takes its own mutex for an observation
    or a snapshot, so two histograms never contend. *)

val n_buckets : int

(** Upper bound of bucket [i]; [bucket_upper n_buckets] is the overflow
    bucket's (notional) bound. *)
val bucket_upper : int -> int

type t

val create : unit -> t

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
