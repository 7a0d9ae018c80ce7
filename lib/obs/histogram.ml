(* Log-scale latency buckets: bucket [i] holds observations in
   [[2^i, 2^(i+1)) µs); the last bucket is the overflow. 22 doubling
   buckets reach ~4.2 s. Each histogram is guarded by its own mutex, so
   two histograms never contend. *)
let n_buckets = 22

(* Top-level and closed, so the hot path allocates no closure. *)
let rec bucket_from v i bound =
  if v < bound || i >= n_buckets then i else bucket_from v (i + 1) (bound * 2)

let bucket_of_int v = bucket_from v 0 2

(* Upper bound of bucket [i] (the Prometheus [le]); the overflow bucket
   has no finite bound. *)
let bucket_upper i = 1 lsl (i + 1)

(* [h_sum] is a one-slot float array so adding to it never boxes. *)
type t = {
  h_lock : Mutex.t;
  mutable h_count : int;
  h_sum : float array;
  h_buckets : int array;  (* length n_buckets + 1 *)
}

let create () =
  {
    h_lock = Mutex.create ();
    h_count = 0;
    h_sum = [| 0.0 |];
    h_buckets = Array.make (n_buckets + 1) 0;
  }

(* The body cannot raise, so a plain lock/unlock pair replaces
   [Fun.protect] and its closure. Inlined, so [v] is never boxed. *)
let[@inline] add h b v =
  Mutex.lock h.h_lock;
  h.h_count <- h.h_count + 1;
  h.h_sum.(0) <- h.h_sum.(0) +. v;
  h.h_buckets.(b) <- h.h_buckets.(b) + 1;
  Mutex.unlock h.h_lock

(* Records [ns / 1000] µs, taking the duration as an immediate int so
   the call allocates nothing. *)
let observe_ns h ns =
  let ns = Int.max 0 ns in
  add h (bucket_of_int (ns / 1000)) (float_of_int ns /. 1e3)

type snapshot = { count : int; sum : float; buckets : int array }

let snapshot h =
  Mutex.lock h.h_lock;
  let s =
    { count = h.h_count; sum = h.h_sum.(0); buckets = Array.copy h.h_buckets }
  in
  Mutex.unlock h.h_lock;
  s

let mean s = if s.count = 0 then 0.0 else s.sum /. float_of_int s.count

(* Upper bound of the smallest bucket covering quantile [q] — i.e. the
   answer is exact to within one bucket boundary (the property the test
   suite checks against adversarial distributions). *)
let quantile s q =
  if s.count = 0 then 0
  else begin
    let target = Int.max 1 (int_of_float (ceil (q *. float_of_int s.count))) in
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
