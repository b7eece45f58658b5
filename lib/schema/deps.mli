(** Static dependency index over the derivation DAG (the incremental
    reclassification engine's map of "what can a change actually touch").

    For every [select] class the index records, transitively through
    method bodies its predicate may invoke:

    - the stored-attribute names whose values the predicate can read, and
    - the classes whose membership the predicate can observe (via
      [In_class], and via classes that locally carry one of the read
      attributes — creating or destroying such a slice changes what the
      attribute resolves to).

    The index is a pure function of the schema; consumers memoize it at
    the schema epoch ({!Schema_graph.version}). *)

type t

val compute : Schema_graph.t -> t

val selects_on_attr : t -> string -> Tse_store.Oid.Set.t
(** Select classes whose predicate verdict may change when the named
    stored attribute of an object is written. Empty means a write to the
    attribute can never change any membership. *)

val selects_on_class : t -> Klass.cid -> Tse_store.Oid.Set.t
(** Select classes whose predicate verdict may change for an object when
    that object's membership of the given class changes. *)

val select_count : t -> int
(** Number of select classes indexed (diagnostics). *)

val pp : Format.formatter -> t -> unit
