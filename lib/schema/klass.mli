(** Class records: base classes and virtual classes with their derivations.

    A virtual class records the object-algebra expression that derives it
    (paper, Section 3.2). The derivation DAG drives update propagation
    (Section 3.4), origin-class computation (Section 6.7) and Theorem 1's
    updatability argument. ["class"] being an OCaml keyword, the module is
    named [Klass]. *)

type cid = Tse_store.Oid.t
(** Class identifiers share the database's OID space. *)

(** How a virtual class derives from its source class(es). Constructor
    order follows Section 3.2. *)
type derivation =
  | Select of cid * Expr.t
  | Hide of string list * cid
  | Refine of Prop.t list * cid
      (** capacity-augmenting refine: the listed properties (stored and/or
          derived) are added; each becomes a local property of the virtual
          class *)
  | Refine_from of { src : cid; prop_name : string; target : cid }
      (** [refine C1:x for C2] — inherit/share C1's property x into C2 *)
  | Union of cid * cid
  | Intersect of cid * cid
  | Difference of cid * cid

type kind = Base | Virtual of derivation

(** [private]: every change goes through a {!Schema_graph} mutator, which
    moves the schema epoch and drops the stale per-class memo entries. *)
type t = private {
  cid : cid;
  mutable name : string;
  kind : kind;
  mutable local_props : Prop.t list;
      (** properties introduced or promoted at this class; inherited
          properties are {e not} listed here *)
  mutable supers : cid list;  (** direct superclasses *)
  mutable subs : cid list;  (** direct subclasses *)
}

(** Raw construction and field writes, which neither move the schema
    epoch nor drop memo entries: for [Schema_graph], the schema codec and
    corruption tests. *)
module Unsafe : sig
  val make :
    cid:cid -> name:string -> kind:kind -> local_props:Prop.t list ->
    supers:cid list -> subs:cid list -> t

  val set_name : t -> string -> unit
  val set_local_props : t -> Prop.t list -> unit
  val set_supers : t -> cid list -> unit
  val set_subs : t -> cid list -> unit
end

val is_base : t -> bool
val is_virtual : t -> bool
val derivation : t -> derivation option

val sources : t -> cid list
(** Direct source classes of a virtual class; [[]] for a base class. *)

val local_prop : t -> string -> Prop.t option
val has_local_prop : t -> string -> bool

val derivation_equal : derivation -> derivation -> bool
(** Structural equality of derivations (same operator, same sources, same
    parameters). The classifier's duplicate detection relies on it. *)

val pp : Format.formatter -> t -> unit
val pp_derivation : Format.formatter -> derivation -> unit
