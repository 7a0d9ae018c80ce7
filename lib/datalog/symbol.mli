(** Interned identifiers.

    Predicate names and constants are interned into a global table so that
    equality and comparison are integer operations; fact stores and rule
    indexes rely on this. Interning is append-only and domain-safe: the
    serve daemon's event loops parse client-supplied atoms from several
    domains in parallel. Lookups of already-interned names (the hot
    path) are lock-free and allocation-free — they probe an immutable
    snapshot published through an [Atomic]; only inserting a new name
    takes a mutex. *)

type t

(** Intern a string (idempotent). *)
val intern : string -> t

val to_string : t -> string

(** Integer identity, stable within a process run. *)
val id : t -> int

val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int
val pp : Format.formatter -> t -> unit

(** Number of distinct symbols interned so far. *)
val count : unit -> int
