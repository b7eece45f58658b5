(** Object identifiers.

    Every conceptual object, implementation object and class record in the
    store is addressed by an OID. OIDs are never reused within a generator,
    which is what lets the object-slicing model keep stable conceptual
    identity across dynamic reclassification (paper, Section 4). *)

type t
(** An opaque object identifier. *)

val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int

val to_int : t -> int
(** Stable integer image of the OID, used by the snapshot format. *)

val of_int : int -> t
(** Inverse of {!to_int}; used only when loading snapshots. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string

(** A source of fresh OIDs. Each database owns one generator so that
    identifiers are unique per database, not globally. *)
module Gen : sig
  type oid := t
  type t

  val create : unit -> t

  val fresh : t -> oid
  (** [fresh g] returns an OID never previously returned by [g]. *)

  val count : t -> int
  (** Number of OIDs handed out so far; Table 1's [#oids] accounting. *)

  val mark_used : t -> oid -> unit
  (** Inform the generator that [oid] is in use (snapshot loading), so that
      subsequent {!fresh} calls do not collide with it. *)

  val peek : t -> int
  (** The integer the next {!fresh} would return. Persisted by the WAL so
      that a recovered database never re-issues an OID that a committed —
      then destroyed — object once held. *)

  val advance_to : t -> int -> unit
  (** Ensure the next {!fresh} returns at least the given integer
    (WAL replay of a {!peek} record). Never moves backwards. *)
end

module Set : Set.S with type elt = t
module Map : Map.S with type key = t
module Tbl : sig
  include Hashtbl.S with type key = t

  val find_or_add : 'a t -> key -> (key -> 'a) -> 'a
  (** The value bound to the key, binding [make key] first if none is. *)
end

(** Growable array keyed directly by the (dense, sequential) OID: one
    bounds check and one load per probe, no hashing, and ascending-OID
    iteration walks memory sequentially. The mutable-table subset of the
    {!Tbl} interface, for structures on scan-hot paths. *)
module Dense : sig
  type oid := t
  type 'a t

  val create : int -> 'a t
  (** Initial capacity hint, as with [Hashtbl.create]. *)

  val find_opt : 'a t -> oid -> 'a option
  val mem : 'a t -> oid -> bool
  val replace : 'a t -> oid -> 'a -> unit
  val remove : 'a t -> oid -> unit

  val iter : (oid -> 'a -> unit) -> 'a t -> unit
  (** Ascending OID order. *)

  val fold : (oid -> 'a -> 'acc -> 'acc) -> 'a t -> 'acc -> 'acc
  (** Ascending OID order. *)

  val length : 'a t -> int
end
