(** Optimistic concurrency control for multi-user sessions.

    The paper runs on GemStone, which supplies "persistent storage,
    concurrency control, etc." (Section 5). This module adds the
    multi-user layer over the heap: GemStone-style optimistic sessions
    with commit-time validation.

    A session buffers its writes and records the version of every object
    it read. [commit] validates that no recorded object has since been
    committed by another session (first-committer-wins); on success the
    buffered writes are applied atomically, on conflict the session aborts
    with the conflicting objects listed.

    Object versions are maintained by listening to the database's change
    events, so direct (non-session) updates also invalidate concurrent
    readers — there is no way to sneak past validation. *)

type t
(** The concurrency manager for one database (one per database). *)

type session

type conflict = {
  objects : Tse_store.Oid.t list;  (** read by this session, since changed *)
}

val create : Tse_db.Database.t -> t
(** Registers the version-tracking listener. *)

val begin_session : t -> session

val read : session -> Tse_store.Oid.t -> string -> Tse_store.Value.t
(** Read a property through the session: records the object in the read
    set; sees the session's own buffered writes. *)

val write : session -> Tse_store.Oid.t -> string -> Tse_store.Value.t -> unit
(** Buffer a write (not visible to other sessions until commit). The
    object joins the read set (write skew is thereby excluded). *)

val commit : session -> (unit, conflict) result
(** Validate and apply. After a result is returned the session is closed;
    reusing it raises [Invalid_argument]. *)

val abort : session -> unit

val is_active : session -> bool
val reads : session -> int
val writes : session -> int

(** {2 Retrying} *)

exception Too_many_conflicts of conflict
(** The last attempt's conflict. *)

val commit_with_retry :
  ?attempts:int ->
  ?backoff:float ->
  ?jitter:Random.State.t ->
  ?durable:Tse_db.Durable.t ->
  t ->
  (session -> 'a) ->
  'a * int
(** [commit_with_retry t f] runs [f] against a fresh session and commits;
    on conflict it retries with a new session (so the body re-reads
    current state), sleeping [backoff * attempt * u] seconds — [u]
    uniform in [0.5, 1.5), capped at 50ms — between attempts. The
    jitter keeps writers that conflicted at the same instant from
    retrying in lock-step; [jitter] supplies the random state (a seeded
    process-wide default otherwise, so runs stay reproducible). Returns
    the body's result and the number of the attempt that committed
    (1 = no conflicts). An exception from [f] aborts the session and
    propagates; if [f] itself aborts the session, that counts as a
    conflict and is retried. Exhausting every attempt increments the
    [occ.retry_exhausted] counter (alongside [occ.retries], which counts
    each sleep) before raising.

    [durable] appends the validated writes to that handle's log as one
    {!Tse_db.Durable.commit} — through its sync policy, so [Group]/
    [Manual] handles amortize the commit fsync across sessions; call
    {!Tse_db.Durable.sync} when a caller needs the barrier.

    @raise Too_many_conflicts after [attempts] (default 5) conflicts.
    @raise Invalid_argument on [attempts < 1] or negative [backoff]. *)
