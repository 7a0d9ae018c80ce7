(** A bounded, sharded LRU map.

    Keys are hashed across independently locked shards; each shard keeps a
    hash table plus an intrusive doubly-linked recency list, so [find] and
    [add] are O(1) under the shard lock. Capacity is accounted in
    caller-estimated bytes ([add ~bytes]); when a shard exceeds its share of
    the budget, least-recently-used entries are evicted until it fits. *)

module type KEY = sig
  type t

  val equal : t -> t -> bool
  val hash : t -> int
end

module Make (K : KEY) : sig
  type 'v t

  (** [create ?shards ~capacity_bytes ()] — the byte budget is split evenly
      across shards (default 8). Raises [Invalid_argument] when [shards] or
      [capacity_bytes] is not positive. *)
  val create : ?shards:int -> capacity_bytes:int -> unit -> 'v t

  (** [find t k] returns the value and promotes the entry to
      most-recently-used. *)
  val find : 'v t -> K.t -> 'v option

  (** [add t k v ~bytes] inserts or replaces, promotes to MRU, then evicts
      LRU entries while the shard is over budget. An entry larger than a
      whole shard is admitted and evicted by the next insertion. *)
  val add : 'v t -> K.t -> 'v -> bytes:int -> unit

  (** [remove t k] — [true] if the key was present. *)
  val remove : 'v t -> K.t -> bool

  val length : 'v t -> int
  val bytes : 'v t -> int
  val capacity_bytes : 'v t -> int

  (** Total entries evicted for capacity since creation. *)
  val evictions : 'v t -> int

  (** The longest bucket chain across the shards' hash tables — how well
      the shard choice and the tables' own bucketing spread the keys. *)
  val longest_chain : 'v t -> int
end
