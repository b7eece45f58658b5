(** The database kernel: one global schema, one object-slicing object
    model, one shared persistent object population (paper, Figure 6's
    "Global Schema Manager" layer).

    Membership semantics implemented here:
    - an object carries an explicit set of {e base} classes it was placed
      into (closed upward within the base hierarchy);
    - membership of every {e virtual} class is defined by its derivation
      formula (Section 3.2) and recomputed to a fixpoint whenever an
      object's base membership or attribute values change;
    - class extents are the materialized global extents, indexed per class
      for scans; [check] cross-validates extents, the object model and the
      derivation formulas. *)

type t
type cid = Tse_schema.Klass.cid

val create : unit -> t

val restore :
  heap:Tse_store.Heap.t ->
  graph:Tse_schema.Schema_graph.t ->
  bases:(Tse_store.Oid.t * cid list) list ->
  t
(** Reassemble a database from catalog parts: a loaded heap, a loaded
    schema graph (sharing the heap's OID generator) and the per-object
    explicit base memberships. The object model is rebuilt by scanning
    the heap; every class gets an extent, re-derived from the restored
    memberships. *)

val graph : t -> Tse_schema.Schema_graph.t
val heap : t -> Tse_store.Heap.t
val model : t -> Tse_objmodel.Slicing.t
val stats : t -> Tse_store.Stats.t
val root : t -> cid

(** {2 Objects} *)

val create_object :
  ?init:(string * Tse_store.Value.t) list -> t -> cid -> Tse_store.Oid.t
(** Create a conceptual object as a member of the given {e base} class,
    assign the listed attributes, then derive its virtual-class
    memberships.
    @raise Invalid_argument if the class is virtual (update operators
    translate virtual-class creation into base-class creation). *)

val destroy_object : t -> Tse_store.Oid.t -> unit
val objects : t -> Tse_store.Oid.t list
val object_count : t -> int
val mem_object : t -> Tse_store.Oid.t -> bool

(** {2 Membership} *)

val add_base_membership : t -> Tse_store.Oid.t -> cid -> unit
(** Place the object into a base class (and, implicitly, its base
    ancestors), then reclassify. *)

val remove_base_membership : t -> Tse_store.Oid.t -> cid -> unit
(** Remove the object from a base class and that class's base descendants,
    then reclassify. *)

val base_membership : t -> Tse_store.Oid.t -> Tse_store.Oid.Set.t
val is_member : t -> Tse_store.Oid.t -> cid -> bool
val member_classes : t -> Tse_store.Oid.t -> cid list

val reclassify : t -> Tse_store.Oid.t -> unit
(** Recompute the object's virtual-class memberships to a fixpoint over
    every virtual class and synchronize implementation objects and
    extents. Emits [Reclassified], then [Membership_delta] if the set
    moved. *)

val admit_class :
  t ->
  cid ->
  prior_ancestors:(cid * Tse_store.Oid.Set.t) list ->
  Tse_store.Oid.Set.t ->
  unit
(** [admit_class t cid ~prior_ancestors candidates] populates the
    just-classified virtual class [cid] from the candidates (its sources'
    extents). [prior_ancestors] gives, for each source of [cid], its
    strict ancestors before [cid] was linked. Each candidate ends with the
    membership [reclassify] would give it, and with the same events.

    Classification adds one class and only edges next to it, so a
    settled membership can move by at most [cid]: each candidate is
    decided by [cid]'s own formula and joins with one slice, one extent
    insert and one [Membership_delta (o, [cid], [])]. The fixpoint
    ([reclassify]) still runs for every candidate when the database is in
    oracle mode, when [cid] sits above a class whose prior ancestors do
    not cover [cid]'s (two existing classes become related), or when a
    select observes [cid] ({!Tse_schema.Deps}) and some candidate joins;
    and for a single candidate that satisfies the formula but lacks one
    of [cid]'s ancestors. Counted by [reclass.admit_fast] and
    [reclass.admit_fallback]. *)

val reclassify_all : t -> unit
(** Reclassify every object, starting from cold verdict memos: every
    select predicate is evaluated afresh, so memberships that went stale
    behind the kernel's back (direct heap writes) are repaired too. *)

val reclassify_many : t -> Tse_store.Oid.t list -> unit
(** Reclassify every object in the list, in list order.  Equivalent to
    [List.iter (reclassify t)] — and literally that loop below the
    parallel threshold, under the oracle, or with a single-domain pool.
    Above the threshold the per-object verdict rounds are evaluated in
    parallel across the global {!Tse_pool.Pool} (read-only phase) and
    integrated one object at a time on the calling domain (memo merges,
    model and extent mutation, events), preserving the sequential event
    order exactly. *)

val with_shared_read : t -> (unit -> 'a) -> 'a
(** Run [f] in shared-read mode: concurrent read-only evaluation from
    other domains is safe for its duration.  Warms every schema memo
    a read can touch (ancestors, derivation order, Deps) so that worker
    lookups are pure reads, and switches [resolve_prop] memoization to
    bypass.  The caller must not
    mutate the database, and must not return lazily-evaluated state,
    until the region ends. *)

(** {2 Incremental reclassification engine}

    [set_attr] consults a static dependency index ({!Tse_schema.Deps})
    to re-evaluate only the select predicates that can observe the
    written attribute; extents are maintained by per-class deltas rather
    than full sweeps. The pre-index full-fixpoint path is kept as a
    correctness oracle, selectable per database or via the
    [DB_FULL_RECLASSIFY=1] environment variable at creation time. *)

val reclassify_fuel : int
(** Extra fixpoint rounds granted after the first before the engine gives
    up on a nonmonotone derivation and calls the nonconvergence hook. *)

val full_reclassify : t -> bool
val set_full_reclassify : t -> bool -> unit
(** Switch between the incremental engine ([false], default) and the full
    fixpoint oracle ([true]). Switching invalidates all verdict caches,
    so the modes can be toggled mid-run for differential testing. *)

val formula_eval_count : t -> int
(** Running count of select-predicate evaluations performed during
    reclassification (both modes). The incremental engine's contract:
    writing an attribute no predicate depends on adds zero. *)

val set_nonconvergence_hook : t -> (Tse_store.Oid.t -> unit) -> unit
(** Called at most once per database with the first object whose fixpoint
    exhausted its fuel. Default prints a warning to [stderr]. *)

(** {2 Extents} *)

val extent : t -> cid -> Tse_store.Oid.Set.t
(** The global extent (paper, footnote 14: "extent" always means global
    extent). *)

val extent_list : t -> cid -> Tse_store.Oid.t list
val extent_size : t -> cid -> int

(** {2 Properties} *)

val get_prop : t -> Tse_store.Oid.t -> string -> Tse_store.Value.t
(** Read a property: a stored attribute slot, or a derived method
    evaluated on the fly.
    @raise Tse_schema.Expr.Unknown_property if undefined for the object.
    @raise Tse_schema.Expr.Type_error if the name is ambiguous for the
    object (unresolved multiple-inheritance conflict). *)

val set_attr : t -> Tse_store.Oid.t -> string -> Tse_store.Value.t -> unit
(** Write a stored attribute (type-checked against its declaration), then
    reclassify the object (its select-class memberships may change).
    @raise Tse_schema.Expr.Type_error on type mismatch or when the target
    is a method. *)

val env : t -> Tse_store.Oid.t -> Tse_schema.Expr.env
val eval : t -> Tse_store.Oid.t -> Tse_schema.Expr.t -> Tse_store.Value.t
val holds : t -> Tse_store.Oid.t -> Tse_schema.Expr.t -> bool
(** Predicate evaluation; unknown properties make the predicate [false]
    rather than raising (an object that lacks the attribute cannot satisfy
    a condition on it). *)

(** {2 Compiled predicate evaluation}

    The query engine and the reclassification engine share one compiled
    evaluation path: predicates are lowered once (constant folding,
    conjunct ordering, fast-path attribute getters bound against the
    current schema) and the resulting closure is reused per object. *)

val compile_pred : t -> Tse_schema.Expr.t -> Tse_store.Oid.t -> bool
(** Compile a predicate into a per-object membership test with exactly
    the {!holds} semantics (evaluation errors absorbed into [false]).
    The closure reads live object state but binds schema facts at compile
    time — it must be discarded when the schema epoch
    ({!Tse_schema.Schema_graph.version}) moves. *)

val compiled_binder : t -> Tse_store.Oid.t Tse_schema.Expr_compile.binder
(** The name binder {!compile_pred} uses (fast-path attribute getters,
    pre-resolved class membership tests); exposed so the query layer can
    compile value-context expressions against the same semantics. *)

(** {2 Change notifications}

    Observers for derived structures (indexes, caches). Events fire after
    the database state has changed. *)

type event =
  | Object_created of Tse_store.Oid.t
  | Object_destroyed of Tse_store.Oid.t
  | Attr_set of Tse_store.Oid.t * string * Tse_store.Value.t
      (** object, attribute, new value *)
  | Reclassified of Tse_store.Oid.t
  | Membership_delta of Tse_store.Oid.t * cid list * cid list
      (** object, classes gained, classes lost — fired after
          [Reclassified], only when the membership set actually changed.
          Derived structures (per-class indexes, extent observers) can
          maintain themselves from the delta instead of rescanning. *)
  | Bases_changed of Tse_store.Oid.t
      (** the object's explicit base-class membership set changed (fires
          on creation and on add/remove of a base membership) *)

val add_listener : t -> (event -> unit) -> unit

(** {2 Registration hooks} *)

val note_new_class : t -> cid -> unit
(** Tell the kernel a class was added to the graph: creates its empty
    extent. Schema-derived memos need no notice; the epoch moved. *)

val note_removed_class : t -> cid -> unit

val derivation_order : t -> cid list
(** Virtual classes ordered so every class follows its sources. *)

(** {2 Consistency oracle} *)

val check : t -> string list
(** Cross-validates: extent index vs object-model membership; derivation
    formulas vs actual virtual-class extents; the is-a extent-subset
    invariant; plus {!Tse_schema.Invariants.check} on the schema. Empty
    means consistent. *)

val check_exn : t -> unit

val pp_extents : Format.formatter -> t -> unit
