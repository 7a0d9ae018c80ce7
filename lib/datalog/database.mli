(** The extensional database: a mutable store of ground atomic facts.

    Facts are indexed by predicate and, secondarily, by (predicate, first
    constant argument); the second index makes the bound-first-argument
    retrievals that dominate the paper's query forms (e.g.
    [prof(manolis)?]) O(1). *)

type t

(** A fresh in-memory database. *)
val create : unit -> t

(** Copy the database into a fresh in-memory database with the same
    facts (facts are shared, the indexes rebuilt), whatever the
    original's backend. Mutating the copy never perturbs the original. *)
val copy : t -> t

(** [add db fact] inserts a ground atom. Returns [true] if it was new.
    Raises [Invalid_argument] if the atom is not ground. *)
val add : t -> Atom.t -> bool

(** [remove db fact] deletes a fact. Returns [true] if it was present. *)
val remove : t -> Atom.t -> bool

(** Membership of a ground atom. *)
val mem : t -> Atom.t -> bool

(** [matching db pattern] returns all facts unifiable with [pattern]
    (which may contain variables) together with the matching substitution.
    Uses the (pred, first-arg) index when the first argument is bound. *)
val matching : t -> Atom.t -> (Atom.t * Subst.t) list

(** First matching fact, if any (cheaper than [matching] for satisficing
    retrieval). *)
val first_match : t -> Atom.t -> (Atom.t * Subst.t) option

(** Number of facts stored for the given predicate name — the statistic
    [Smi89]'s heuristic consumes (e.g. 2000 [prof] facts vs 500 [grad]). *)
val count_pred : t -> string -> int

(** Like [count_pred] but keyed by an interned [Symbol.id] — no string
    allocation, for hot paths (SLD reduction ordering). *)
val count_pred_id : t -> int -> int

(** Total number of facts. *)
val size : t -> int

(** A token unique to this database instance (fresh on [create]/[copy]).
    Caches record it alongside [generation] so entries computed against a
    different database never validate. *)
val token : t -> int

(** Mutation counter: bumped by every successful [add] or [remove]. Caches
    record the generation an entry was computed at and invalidate lazily
    when it no longer matches. [generation] and [size] are atomic, so
    reading them from another domain while a mutation is in flight is
    well-defined (monotonic, never torn); mutating the database itself
    still requires external synchronization. *)
val generation : t -> int

val of_list : Atom.t list -> t
val to_list : t -> Atom.t list
val iter : (Atom.t -> unit) -> t -> unit
val fold : (Atom.t -> 'a -> 'a) -> t -> 'a -> 'a

(** Predicates present, with their fact counts. *)
val predicates : t -> (Symbol.t * int) list

val pp : Format.formatter -> t -> unit

(** {1 Persistence}

    A database backed by the paged persistent store ({!Store}) instead
    of in-memory sets. The rest of the API is backend-transparent: SLD
    resolution, caching, and the learners operate on either. *)

(** Open (or create) a paged database rooted at [dir]. [page_size]
    (creation only) and [buffer_pages] (buffer-pool frames) tune the
    store; [wal_sync] sets the WAL group-commit policy (default: 20 ms
    interval). The persistent [token] and [generation] survive restarts,
    so cache invalidation stays correct across them. *)
val open_paged :
  dir:string ->
  ?page_size:int ->
  ?buffer_pages:int ->
  ?wal_sync:Store.sync_mode ->
  unit ->
  t

(** [bulk_load db ~src] fills the paged database [db], which must hold
    no facts, with every fact of [src], committed as one checkpoint
    image and without a WAL record. The store ends up byte-identical to
    adding [src]'s facts one by one in [iter] order and then calling
    [checkpoint], with the same generation; a crash part-way leaves
    either no facts or all of them. Raises [Invalid_argument] if [db]
    is not paged or already holds facts. *)
val bulk_load : t -> src:t -> unit

(** Release the paged backend's file handles (no-op for in-memory).
    Unflushed mutations are recovered from the WAL on the next open. *)
val close : t -> unit

(** Compact the paged backend into a fresh checkpoint image and reset
    the WAL (no-op for in-memory). *)
val checkpoint : t -> unit

(** Force a WAL group-commit fsync (no-op for in-memory). *)
val sync : t -> unit

(** Store counters when the database is paged; [None] for in-memory. *)
val store_stats : t -> Store.stats option

(** ["mem"] or ["paged"]. *)
val backend_name : t -> string
