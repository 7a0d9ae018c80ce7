(** The paged persistent fact store.

    A store lives in a directory:

    - [header] — magic/version, page size, the persistent [token] and
      checkpoint-time [generation], written atomically (see {!Fsync}).
    - [symtab] — the symbol catalog at the last checkpoint: store
      symbol ids ({e sids}) are dense ints, assigned at first intern and
      stable across restarts (unlike process-run [Datalog.Symbol] ids —
      which is what makes pages position-independent).
    - [pages] — the checkpoint image: fixed-size {!Page}s of packed
      fact tuples, replaced wholesale (atomic rename) at checkpoint,
      never written in place.
    - [wal] — the {!Wal} of every mutation since the last checkpoint.
    - [spill] — per-run scratch for dirty-page eviction ({!Pool});
      recovery never reads it.

    Facts are argument tuples of sids keyed by predicate sid; retrieval
    goes through per-predicate hash access methods keyed on
    [(pred, first argument)] — mirroring the in-memory index the SLD
    engine's bound-first-argument retrievals and [count_pred] exploit.
    The access methods are an in-memory directory of record locators
    (Bitcask-style: the keydir is resident, the tuples are paged), so a
    lookup costs at most one page fault per candidate record.

    Recovery on open: rebuild the directory by scanning the checkpoint
    image, then replay the WAL's valid prefix idempotently (re-adding a
    fact already present, or re-deleting an absent one, is a no-op, so
    pages that reached disk before a crash do not double-apply).

    All operations are serialized on an internal mutex; [generation],
    [fact_count] and [token] are atomics readable without it. *)

type t

type sync_mode = Wal.sync_mode = Always | Interval of float | Never

(** Open (or create) the store in [dir]. [page_size] (default 4096,
    min 64) applies only on creation — an existing store keeps its own.
    [pool_pages] (default 256, min 2) is the buffer-pool frame count.
    [sync] (default [Interval 0.02]) is the WAL group-commit policy. *)
val open_ :
  dir:string ->
  ?page_size:int ->
  ?pool_pages:int ->
  ?sync:sync_mode ->
  unit ->
  t

(** Sync the WAL and release every file handle. Dirty pages are {e not}
    checkpointed — the next open replays them from the WAL. *)
val close : t -> unit

(** {1 Symbols} *)

(** Intern a name into the persistent catalog (idempotent; logs a WAL
    record when new). *)
val sid_intern : t -> string -> int

(** Lookup without interning. *)
val sid_lookup : t -> string -> int option

val sid_name : t -> int -> string
val n_syms : t -> int

(** {1 Facts}

    A fact is a predicate sid plus an argument tuple of sids. *)

(** Returns [false] if the fact was already present. *)
val insert : t -> pred:int -> int array -> bool

(** Returns [false] if the fact was absent. *)
val delete : t -> pred:int -> int array -> bool

val mem : t -> pred:int -> int array -> bool

(** Facts of [pred] whose first argument is [first] ([-1] matches the
    nullary bucket). The callback must not call back into the store. *)
val iter_bucket : t -> pred:int -> first:int -> (int array -> unit) -> unit

(** All facts of [pred] (page-sequential). *)
val iter_pred : t -> pred:int -> (int array -> unit) -> unit

(** Every fact, with its predicate sid. *)
val iter_all : t -> (pred:int -> int array -> unit) -> unit

val count_pred : t -> pred:int -> int
val count_bucket : t -> pred:int -> first:int -> int

(** Predicate sids present (count > 0), with counts, unsorted. *)
val pred_counts : t -> (int * int) list

(** {1 State} *)

val fact_count : t -> int

(** Mutation counter: bumped by every successful insert/delete,
    persisted (WAL records carry it; the header holds the checkpoint
    value), so it is monotone across restarts and crash recovery. *)
val generation : t -> int

(** Persistent instance token, drawn once at creation (negative, so it
    can never collide with an in-memory database's token). *)
val token : t -> int

(** {1 Maintenance} *)

(** Compact every live fact into a fresh checkpoint image (symtab,
    pages, header — renamed in that order, each atomically), then reset
    the WAL. Crash-safe at any point: until the WAL reset commits, the
    old/new image plus idempotent replay reconstruct the same state. *)
val checkpoint : t -> unit

(** [bulk_load t ~names preds] fills a store that holds no facts with
    one checkpoint image, without logging: [names] extends the catalog
    with sids [n_syms t], [n_syms t + 1], ... in order (no name may be in
    it already), and [preds] gives each predicate's rows as
    [(pred, rows)], where [rows f] calls [f] on every argument tuple in
    insertion order (no tuple repeated). The image is packed and
    committed exactly as {!checkpoint} packs and commits one — symtab,
    pages, header, each an atomic replace — so it is byte-identical to
    inserting the same tuples one at a time and checkpointing, with the
    same generation (the old one plus the fact count). A crash before
    the pages land reopens to a store with no facts; after, to all of
    them. Raises [Invalid_argument] if the store holds facts. *)
val bulk_load :
  t -> names:string list -> (int * ((int array -> unit) -> unit)) list -> unit

(** Force a WAL group-commit fsync now. *)
val sync : t -> unit

type stats = {
  page_size : int;
  pages : int;           (** pages allocated (image + since) *)
  pool_pages : int;      (** buffer-pool frames *)
  pool_hits : int;
  pool_misses : int;
  pool_evictions : int;
  page_reads : int;
  page_writes : int;
  wal_bytes : int;
  wal_appends : int;
  wal_syncs : int;
  checkpoints : int;     (** checkpoints taken this run *)
  checkpoint_unix : float; (** wall time of the last checkpoint (this
                               run; open counts) *)
  facts : int;
  symbols : int;
  generation : int;
}

val stats : t -> stats
