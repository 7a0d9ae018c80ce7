(** Strategy durability: persist every form's learned strategy to a state
    directory and reload it on startup, so a restarted server resumes
    with everything it learned.

    A save writes one file, [<dir>/strategies], with one section per
    form in {!Registry.key_of_form} order, so equal learners give
    byte-equal files. A section is:

    - a [form "<atom>"] line: the canonical query-form atom in
      [Parser.parse_atom] syntax, OCaml-escaped so that no predicate
      name can break the line framing (how to rebuild the learner);
    - the inference graph, an {!Infgraph.Serial} block ending in [end];
    - the learned strategy, a {!Strategy.Persist} block ending in [end].

    The file is written with one {!Store.Fsync.write_file} (temp file,
    fsync, rename, directory fsync) under a process-wide save lock, so
    saves never overlap, the newest save lands last, and a crash leaves
    either the old file or the new one whole.

    Loading is defensive: a section that is malformed, or whose saved
    graph no longer matches the graph rebuilt from the current rule
    base (the knowledge base changed), is skipped with a [warn] record
    rather than failing startup. *)

(** [save ~dir registry] — write a snapshot of every registered form.
    Creates [dir] if needed. Returns the number of forms saved. *)
val save : dir:string -> Registry.t -> int

(** [load ?log ~dir registry] — rebuild a learner for every section of
    [<dir>/strategies] and install its saved strategy. Returns the number
    of forms restored; what it skips is logged to [log] at [warn]
    (default {!Obs.Log.null}). Per-form [.form]/[.graph]/[.strategy]
    files of the earlier layout are not read: one [warn] record counts
    them. Does nothing if [dir] does not exist. *)
val load : ?log:Obs.Log.t -> dir:string -> Registry.t -> int
