(** The global schema: one rooted DAG of base and virtual classes.

    MultiView integrates every virtual class into a single consistent
    global schema graph (paper, Section 3.1); all views select their
    classes from here. The distinguished root class (the paper's
    [ROOT]/[OBJECT]) is created with the graph and is the default
    superclass of otherwise-unconnected classes. *)

type cid = Klass.cid
type t

val create : gen:Tse_store.Oid.Gen.t -> t
val gen : t -> Tse_store.Oid.Gen.t

val version : t -> int
(** The schema epoch. Every mutator below strictly increases it, and
    {!Klass.t} is private, so no class or edge can change without it
    moving. Whole-graph caches, which {!cell}s hold, key on it; per-class
    {!memoize} tables do not (DESIGN.md, "Schema epoch"). *)

(** {2 Up-cone memos}

    A per-class table whose value for class [c] reads only the records of
    [c] and of its ancestors. Such a value goes stale only when one of
    those records changes, so the mutator that changes class [x] drops
    the entries of [x] and of its descendants from every table, and
    nothing else does: a change that adds a class below or beside [c]
    keeps [c]'s entry. {!install} and {!relink_subs} clear every table.
    A hit only reads, so memos warmed on one domain may be read from
    several. *)

type 'a memo
(** Names a per-class table that every graph keeps for itself; a {!copy}
    starts with none. *)

val memo : unit -> 'a memo

val memoize : t -> 'a memo -> (cid -> 'a) -> cid -> 'a
(** [memoize t m f c] is [f c], computed at most once until a mutator
    changes [c] or one of its ancestors. [f c] may read only the records
    of [c] and of its ancestors, and must make the value of each direct
    superclass of [c] through [memoize t m] first: the drop walk relies
    on a table that holds a class holding all of its superclasses. Each
    computation counts as one [schema.memo.recomputes]. *)

(** {2 Schema-epoch cells} *)

type 'a cell
(** A value derived from the whole graph but owned elsewhere. *)

val cell : (unit -> 'a) -> 'a cell

val current : t -> 'a cell -> 'a
(** The cell's value, made afresh at the first read after the epoch
    moves. Read a cell against one graph only. *)

val root : t -> cid
(** The system root class, named ["Object"]. *)

(** {2 Class registry} *)

val register_base :
  t -> name:string -> props:Prop.t list -> supers:cid list -> cid
(** Create and link a base class. An empty [supers] list links the class
    under the root. Property [origin] fields are rewritten to the new
    class.
    @raise Invalid_argument if the name is already in use by another class. *)

val register_virtual :
  t -> name:string -> Klass.derivation -> Prop.t list -> cid
(** Create a virtual class {e without} is-a edges; the classifier is
    responsible for linking it (Section 3.1, subtask 2). *)

val find : t -> cid -> Klass.t option
val find_exn : t -> cid -> Klass.t
val find_by_name : t -> string -> Klass.t option
(** A lookup in the graph's name index, which the mutators keep. *)

val find_by_name_exn : t -> string -> Klass.t
val name_of : t -> cid -> string
val mem : t -> cid -> bool
val classes : t -> Klass.t list
val cids : t -> cid list
val size : t -> int

val remove : t -> cid -> unit
(** Unlink the class from all neighbours and drop it. The root cannot be
    removed. *)

val rename : t -> cid -> string -> unit
(** @raise Invalid_argument if another class already uses the name. *)

val add_local_prop : t -> cid -> Prop.t -> unit
(** @raise Invalid_argument if a local property with that name exists. *)

val add_local_props : t -> cid -> Prop.t list -> unit
(** Append the properties in order, with one epoch move.
    @raise Invalid_argument if a local property with one of the names
    exists, or the list names a property twice. *)

val remove_local_prop : t -> cid -> string -> unit

val replace_local_prop : t -> cid -> Prop.t -> unit
(** Drop the local property of that name, if any, and append this one. *)

(** {2 Generalization edges} *)

val add_edge : t -> sup:cid -> sub:cid -> unit
(** Make [sup] a direct superclass of [sub]. Adding an existing edge is a
    no-op; if [sub]'s only superclass was the root, the root edge is
    dropped first (the root stays an indirect ancestor).
    @raise Invalid_argument if the edge would create a cycle. *)

val remove_edge : t -> sup:cid -> sub:cid -> unit
(** Remove a direct edge; if this disconnects [sub] from every superclass,
    [sub] is re-attached under the root (paper, Section 6.6.1). *)

val supers : t -> cid -> cid list
val subs : t -> cid -> cid list

val ancestors : t -> cid -> Tse_store.Oid.Set.t
(** All transitive superclasses, excluding the class itself; an up-cone
    memo built from the memoized sets of the direct superclasses, so the
    sets share structure. *)

val descendants : t -> cid -> Tse_store.Oid.Set.t
(** All transitive subclasses, excluding the class itself. A down-cone
    changes whenever a class is added below, so it is walked afresh on
    every call, not memoized. *)

val is_strict_ancestor : t -> anc:cid -> desc:cid -> bool
val is_ancestor_or_self : t -> anc:cid -> desc:cid -> bool

val subclasses_within : t -> cid -> in_set:Tse_store.Oid.Set.t -> cid list
(** Descendants (including the class itself) restricted to [in_set] — the
    "subclasses of C within a view" traversal used by the Section 6
    translation algorithms. *)

val topo_order : t -> cid list
(** Every class after all of its superclasses. *)

val paths_down : t -> src:cid -> dst:cid -> cid list list
(** All generalization paths from ancestor [src] down to descendant [dst],
    each path listed from [src] to [dst] inclusive. Used by the
    [findProperties] macro (Section 6.6.2, footnote 17). *)

val is_redundant_edge : t -> sup:cid -> sub:cid -> bool
(** [true] when [sub] would remain a descendant of [sup] through some other
    path if the direct edge were removed. *)

val copy : t -> t
(** Deep copy (fresh class records, same cids). The direct-modification
    oracle and Proposition B checks mutate copies. *)

(** {2 Catalog loading} *)

val restore_empty : gen:Tse_store.Oid.Gen.t -> root:cid -> t
(** An empty graph whose root will be the class with the given id; the
    loader must {!install} that class (and all others) itself. *)

val install : t -> Klass.t -> unit
(** Register a class record verbatim (no edge bookkeeping, no checks);
    catalog loading only. The generator is advanced past its cid. *)

val relink_subs : t -> unit
(** Rebuild every class's [subs] list from the [supers] lists — called
    once after all classes are installed. *)

val pp : Format.formatter -> t -> unit
