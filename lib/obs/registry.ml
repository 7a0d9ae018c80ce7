(* The instrument store behind /metrics and the STATS facade.

   Shape: a registry holds *families* (name, help text, label names, and
   one of three kinds); a family holds one *child* time series per
   distinct label-value tuple. Families and children are created under
   the registry lock (cold path — consumers cache child handles); the
   hot path touches only the child itself: counters and gauges are
   atomics, histograms take their own per-child mutex. Updates are O(1)
   and two children never contend with each other — the "lock sharding"
   is one shard per time series. *)

let name_re_ok s =
  s <> ""
  && (match s.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> true | _ -> false)
  && String.for_all
       (function
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> true
         | _ -> false)
       s

let label_re_ok s =
  s <> ""
  && (match s.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' -> true | _ -> false)
  && String.for_all
       (function
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true | _ -> false)
       s

type kind = Counter_k | Gauge_k | Histogram_k

(* Log-scale latency buckets, shared with the serve-path STATS
   histograms: bucket [i] holds observations in [[2^i, 2^(i+1)) µs); the
   last bucket is the overflow. 22 doubling buckets reach ~4.2 s. *)
let n_buckets = 22

(* Top-level and closed, so the hot path allocates no closure. *)
let rec bucket_from v i bound =
  if v < bound || i >= n_buckets then i else bucket_from v (i + 1) (bound * 2)

let bucket_of_int v = bucket_from v 0 2

let bucket_of_value v = bucket_of_int (int_of_float (Float.max v 0.0))

(* Upper bound of bucket [i] (the Prometheus [le]); the overflow bucket
   has no finite bound. *)
let bucket_upper i = 1 lsl (i + 1)

(* [h_sum] is a one-slot float array so adding to it never boxes. *)
type hist_state = {
  h_lock : Mutex.t;
  mutable h_count : int;
  h_sum : float array;
  h_buckets : int array;  (* length n_buckets + 1 *)
}

type child_state =
  | Counter_c of int Atomic.t
  | Gauge_c of float Atomic.t
  | Histogram_c of hist_state

type child = { labels : string list; state : child_state }

type family = {
  fam_name : string;
  fam_help : string;
  fam_labels : string list;
  fam_kind : kind;
  fam_lock : Mutex.t;  (* guards [children] creation *)
  children : (string list, child) Hashtbl.t;
}

type t = {
  lock : Mutex.t;
  mutable families : family list;  (* newest first *)
  mutable hooks : (unit -> unit) list;  (* run before every render *)
}

let create () = { lock = Mutex.create (); families = []; hooks = [] }

let with_lock m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

let on_collect t f = with_lock t.lock (fun () -> t.hooks <- f :: t.hooks)

let collect t =
  let hooks = with_lock t.lock (fun () -> List.rev t.hooks) in
  List.iter (fun f -> f ()) hooks

let family t ~kind ~help ~labels name =
  if not (name_re_ok name) then
    invalid_arg (Printf.sprintf "Obs.Registry: invalid metric name %S" name);
  List.iter
    (fun l ->
      if not (label_re_ok l) then
        invalid_arg (Printf.sprintf "Obs.Registry: invalid label name %S" l))
    labels;
  with_lock t.lock (fun () ->
      if List.exists (fun f -> f.fam_name = name) t.families then
        invalid_arg
          (Printf.sprintf "Obs.Registry: duplicate metric family %S" name);
      let f =
        {
          fam_name = name;
          fam_help = help;
          fam_labels = labels;
          fam_kind = kind;
          fam_lock = Mutex.create ();
          children = Hashtbl.create 4;
        }
      in
      t.families <- f :: t.families;
      f)

let child fam values =
  if List.length values <> List.length fam.fam_labels then
    invalid_arg
      (Printf.sprintf "Obs.Registry: %s takes %d label value(s), got %d"
         fam.fam_name
         (List.length fam.fam_labels)
         (List.length values));
  with_lock fam.fam_lock (fun () ->
      match Hashtbl.find_opt fam.children values with
      | Some c -> c
      | None ->
        let state =
          match fam.fam_kind with
          | Counter_k -> Counter_c (Atomic.make 0)
          | Gauge_k -> Gauge_c (Atomic.make 0.0)
          | Histogram_k ->
            Histogram_c
              {
                h_lock = Mutex.create ();
                h_count = 0;
                h_sum = [| 0.0 |];
                h_buckets = Array.make (n_buckets + 1) 0;
              }
        in
        let c = { labels = values; state } in
        Hashtbl.add fam.children values c;
        c)

let sorted_children fam =
  with_lock fam.fam_lock (fun () ->
      Hashtbl.fold (fun _ c acc -> c :: acc) fam.children [])
  |> List.sort (fun a b -> compare a.labels b.labels)

module Counter = struct
  type fam = family
  type nonrec t = child

  let v reg ~help ?(labels = []) name =
    family reg ~kind:Counter_k ~help ~labels name

  let labels = child
  let solo fam = child fam []

  let state c =
    match c.state with Counter_c a -> a | _ -> assert false

  let inc c = ignore (Atomic.fetch_and_add (state c) 1)

  let add c n =
    if n < 0 then invalid_arg "Obs.Registry.Counter.add: negative increment";
    ignore (Atomic.fetch_and_add (state c) n)

  (* Mirror an external monotonic counter (e.g. the cache layer's own
     hit count) at collect time. Never moves the value backwards. *)
  let set c n =
    let a = state c in
    let rec go () =
      let cur = Atomic.get a in
      if n > cur && not (Atomic.compare_and_set a cur n) then go ()
    in
    go ()

  let value c = Atomic.get (state c)
end

module Gauge = struct
  type fam = family
  type nonrec t = child

  let v reg ~help ?(labels = []) name =
    family reg ~kind:Gauge_k ~help ~labels name

  let labels = child
  let solo fam = child fam []

  let state c = match c.state with Gauge_c a -> a | _ -> assert false
  let set c v = Atomic.set (state c) v

  let add c d =
    let a = state c in
    let rec go () =
      let cur = Atomic.get a in
      if not (Atomic.compare_and_set a cur (cur +. d)) then go ()
    in
    go ()

  let set_max c v =
    let a = state c in
    let rec go () =
      let cur = Atomic.get a in
      if v > cur && not (Atomic.compare_and_set a cur v) then go ()
    in
    go ()

  let value c = Atomic.get (state c)

  (* Read-and-zero: the windowed high-water idiom (resets on scrape). *)
  let read_reset c = Atomic.exchange (state c) 0.0
end

module Histogram = struct
  type fam = family
  type nonrec t = child

  let v reg ~help ?(labels = []) name =
    family reg ~kind:Histogram_k ~help ~labels name

  let labels = child
  let solo fam = child fam []

  let state c = match c.state with Histogram_c h -> h | _ -> assert false

  (* The body cannot raise, so a plain lock/unlock pair replaces
     [with_lock] and its closure. Inlined, so [v] is never boxed. *)
  let[@inline] add c b v =
    let h = state c in
    Mutex.lock h.h_lock;
    h.h_count <- h.h_count + 1;
    h.h_sum.(0) <- h.h_sum.(0) +. v;
    h.h_buckets.(b) <- h.h_buckets.(b) + 1;
    Mutex.unlock h.h_lock

  let observe c v = add c (bucket_of_value v) v

  (* [observe] of [ns / 1000] µs, taking the duration as an immediate
     int so the call allocates nothing. *)
  let observe_ns c ns =
    let ns = Int.max 0 ns in
    add c (bucket_of_int (ns / 1000)) (float_of_int ns /. 1e3)

  type snapshot = { count : int; sum : float; buckets : int array }

  let snapshot c =
    let h = state c in
    Mutex.lock h.h_lock;
    let s =
      { count = h.h_count; sum = h.h_sum.(0); buckets = Array.copy h.h_buckets }
    in
    Mutex.unlock h.h_lock;
    s

  let mean s = if s.count = 0 then 0.0 else s.sum /. float_of_int s.count

  (* Upper bound of the smallest bucket covering quantile [q] — i.e. the
     answer is exact to within one bucket boundary (the property the
     test suite checks against adversarial distributions). *)
  let quantile s q =
    if s.count = 0 then 0
    else begin
      let target =
        Int.max 1 (int_of_float (ceil (q *. float_of_int s.count)))
      in
      let acc = ref 0 and result = ref (bucket_upper n_buckets) in
      (try
         Array.iteri
           (fun i n ->
             acc := !acc + n;
             if !acc >= target then begin
               result := bucket_upper i;
               raise Exit
             end)
           s.buckets
       with Exit -> ());
      !result
    end
end

(* ---------- reading (for Expo and the STATS facade) ---------- *)

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
  samples : sample list;
}

let view t =
  let families = with_lock t.lock (fun () -> List.rev t.families) in
  List.map
    (fun f ->
      {
        name = f.fam_name;
        help = f.fam_help;
        label_names = f.fam_labels;
        kind = f.fam_kind;
        samples =
          List.map
            (fun c ->
              {
                sample_labels = c.labels;
                value =
                  (match c.state with
                  | Counter_c a -> Sample_counter (Atomic.get a)
                  | Gauge_c a -> Sample_gauge (Atomic.get a)
                  | Histogram_c _ -> Sample_histogram (Histogram.snapshot c));
              })
            (sorted_children f);
      })
    families
  |> List.sort (fun a b -> String.compare a.name b.name)
