(** A single-threaded readiness loop: epoll on Linux (via
    [epoll_stubs.c]), [Unix.select] elsewhere, behind one interface.

    The reactor registers every socket with a callback; {!iterate} polls
    once and dispatches [readable]/[writable] flags to the callbacks of
    ready sockets. All registration and dispatch happens on the one
    thread that runs the loop — only {!wake} is thread-safe, which is
    how other threads get the loop's attention: the acceptor after
    handing it a new socket, and shutdown.

    A process may run many loops (the sharded reactor fleet runs one per
    domain): each {!create} owns a private poller instance and a
    private wake channel — an eventfd on Linux (one fd per loop, kernel-
    coalesced), a pipe elsewhere — so loops share no state and never
    contend.

    Level-triggered semantics on both backends: a callback that does not
    drain its socket is simply called again on the next iteration. *)

type t

val create : unit -> t
(** Picks epoll when the platform supports it, select otherwise. *)

val backend : t -> string
(** ["epoll"] or ["select"] — surfaced in logs and STATS JSON. *)

val add :
  t -> Unix.file_descr -> read:bool -> write:bool ->
  (readable:bool -> writable:bool -> unit) -> unit
(** Register a socket and its callback. Loop thread only. *)

val modify : t -> Unix.file_descr -> read:bool -> write:bool -> unit
(** Change interest; no-op if the interest is unchanged or the socket is
    not registered. Loop thread only. *)

val remove : t -> Unix.file_descr -> unit
(** Deregister. Must be called before the fd is closed. Loop thread
    only; idempotent. *)

val wake : t -> unit
(** Make the current (or next) {!iterate} return promptly and run the
    {!on_wake} hook. Thread-safe and async-signal-safe: an atomic flag
    coalesces bursts so n completions cost at most one pipe write. *)

val on_wake : t -> (unit -> unit) -> unit
(** Install the post-poll hook. {!iterate} runs it exactly once per
    iteration, whether or not a wake arrived — the hook owns checking
    its own work queues. *)

val wakeups : t -> int
(** Wake deliveries this loop has drained so far (coalesced: a burst of
    {!wake} calls between two polls counts once). Safe from any thread
    — the per-loop [strategem_loop_wakeups_total] series reads it when
    it renders. *)

val iterate : t -> timeout_ms:int -> unit
(** One poll + dispatch + [on_wake] round. *)

val run : t -> stop:(unit -> bool) -> unit
(** [iterate] until [stop ()] is true (checked once per iteration). *)

val close : t -> unit
(** Release the poller and wake pipe. The registered sockets are the
    caller's to close. *)
