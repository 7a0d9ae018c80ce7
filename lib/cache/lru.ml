module type KEY = sig
  type t

  val equal : t -> t -> bool
  val hash : t -> int
end

module Make (K : KEY) = struct
  module Tbl = Hashtbl.Make (K)

  type 'v node = {
    key : K.t;
    mutable value : 'v;
    mutable size : int;
    mutable prev : 'v node option; (* toward MRU *)
    mutable next : 'v node option; (* toward LRU *)
  }

  type 'v shard = {
    lock : Mutex.t;
    tbl : 'v node Tbl.t;
    mutable mru : 'v node option;
    mutable lru : 'v node option;
    mutable used : int;
    mutable evicted : int;
    capacity : int;
  }

  type 'v t = { shards : 'v shard array }

  let create ?(shards = 8) ~capacity_bytes () =
    if shards < 1 then invalid_arg "Lru.create: shards must be >= 1";
    if capacity_bytes < 1 then invalid_arg "Lru.create: capacity must be >= 1";
    let per_shard = max 1 (capacity_bytes / shards) in
    {
      shards =
        Array.init shards (fun _ ->
            {
              lock = Mutex.create ();
              tbl = Tbl.create 64;
              mru = None;
              lru = None;
              used = 0;
              evicted = 0;
              capacity = per_shard;
            });
    }

  (* The shard's [Tbl] buckets on the low bits of [K.hash], so picking
     the shard from those same bits would leave most of every shard's
     buckets empty whenever keys hash sequentially (symbol ids do).
     Mixing the hash first decorrelates the two. *)
  let shard_of t k =
    t.shards.(Hashtbl.hash (K.hash k) mod Array.length t.shards)

  (* Recency-list surgery; shard lock held. *)
  let unlink sh n =
    (match n.prev with Some p -> p.next <- n.next | None -> sh.mru <- n.next);
    (match n.next with Some x -> x.prev <- n.prev | None -> sh.lru <- n.prev);
    n.prev <- None;
    n.next <- None

  let push_front sh n =
    n.prev <- None;
    n.next <- sh.mru;
    (match sh.mru with Some m -> m.prev <- Some n | None -> sh.lru <- Some n);
    sh.mru <- Some n

  (* Never evicts the MRU: an entry larger than the whole shard budget is
     admitted alone and reclaimed by the next insertion. *)
  let rec evict_over sh =
    if sh.used > sh.capacity then
      match (sh.lru, sh.mru) with
      | Some n, Some m when m != n ->
        unlink sh n;
        Tbl.remove sh.tbl n.key;
        sh.used <- sh.used - n.size;
        sh.evicted <- sh.evicted + 1;
        evict_over sh
      | _ -> ()

  (* Each locked section below is list surgery and table operations on
     keys whose [equal] and [hash] do not raise, so a plain lock/unlock
     pair stands in for a [Fun.protect] closure per call. *)
  let find t k =
    let sh = shard_of t k in
    Mutex.lock sh.lock;
    let r =
      match Tbl.find sh.tbl k with
      | exception Not_found -> None
      | n ->
        unlink sh n;
        push_front sh n;
        Some n.value
    in
    Mutex.unlock sh.lock;
    r

  let add t k v ~bytes =
    let sh = shard_of t k in
    Mutex.lock sh.lock;
    (match Tbl.find sh.tbl k with
    | n ->
      n.value <- v;
      sh.used <- sh.used - n.size + bytes;
      n.size <- bytes;
      unlink sh n;
      push_front sh n
    | exception Not_found ->
      let n = { key = k; value = v; size = bytes; prev = None; next = None } in
      Tbl.add sh.tbl k n;
      sh.used <- sh.used + bytes;
      push_front sh n);
    evict_over sh;
    Mutex.unlock sh.lock

  let remove t k =
    let sh = shard_of t k in
    Mutex.lock sh.lock;
    let r =
      match Tbl.find sh.tbl k with
      | exception Not_found -> false
      | n ->
        unlink sh n;
        Tbl.remove sh.tbl k;
        sh.used <- sh.used - n.size;
        true
    in
    Mutex.unlock sh.lock;
    r

  let fold_shards t f =
    Array.fold_left
      (fun acc sh ->
        Mutex.lock sh.lock;
        let r = f acc sh in
        Mutex.unlock sh.lock;
        r)
      0 t.shards

  let sum t f = fold_shards t (fun acc sh -> acc + f sh)
  let length t = sum t (fun sh -> Tbl.length sh.tbl)
  let bytes t = sum t (fun sh -> sh.used)
  let capacity_bytes t = sum t (fun sh -> sh.capacity)
  let evictions t = sum t (fun sh -> sh.evicted)

  let longest_chain t =
    fold_shards t (fun acc sh ->
        Int.max acc (Tbl.stats sh.tbl).Hashtbl.max_bucket_length)
end
