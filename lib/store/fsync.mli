(** Durable-write helpers shared by everything that persists state
    (strategy snapshots, the fact store's WAL and checkpoints).

    The discipline is always the same: write a temp file, [fsync] it,
    [rename] over the final name, then [fsync] the directory. Without the
    first fsync a crash shortly after the rename can leave the final name
    pointing at truncated data (the rename is metadata and can reach disk
    before the data blocks); without the second, the rename itself may be
    lost. *)

(** [fsync_fd fd] — flush [fd] to stable storage; [Unix.Unix_error]
    escapes (callers writing durability-critical data must not swallow
    it). *)
val fsync_fd : Unix.file_descr -> unit

(** Best-effort fsync of a directory (some filesystems refuse directory
    fsync; errors are ignored, as is an unopenable directory). *)
val fsync_dir : string -> unit

(** [write_file path content] — atomic durable replacement of [path]:
    temp file + fsync + rename + directory fsync. A reader sees either
    the old content or the new, whole. The temp file is always
    [<path>.tmp], so it assumes one writer per path at a time: two
    overlapping writes can fail their rename or publish a file mixing
    both. The store writes at open, before it is shared, and at
    checkpoints under its engine lock; [Serve.Snapshot] writes under its
    save lock. *)
val write_file : string -> string -> unit

(** [mkdir] if missing (single level). *)
val ensure_dir : string -> unit
