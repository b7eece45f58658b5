(** The object table: the persistent-store substrate standing in for
    GemStone (paper, Section 5).

    A heap cell is a tagged record of named slots. Both object models store
    their physical objects here: the intersection-class model stores one
    cell per conceptual object; the object-slicing model stores one cell per
    conceptual object plus one per implementation object. *)

type t

type cell = {
  oid : Oid.t;
  mutable tag : string;
      (** the owning class name (or an object-model-specific tag) *)
  slots : (string, Value.t) Hashtbl.t;
}

type op =
  | Alloc of Oid.t * string
  | Free of Oid.t
  | Set_tag of Oid.t * string
  | Set_slot of Oid.t * string * Value.t
  | Remove_slot of Oid.t * string
  | Swap of Oid.t * Oid.t
      (** The physical mutation language: what the WAL records and what
          {!Recovery} replays. Every state change of the heap is
          expressible as a sequence of these. *)

val create : unit -> t

val set_logger : t -> (op -> unit) option -> unit
(** Install (or remove) the mutation observer. The logger sees every
    physical change in execution order, so replaying the logged sequence
    against a copy of the starting heap reproduces the final heap
    exactly. Used by the durability layer ({!Tse_db.Durable}). *)

val gen : t -> Oid.Gen.t
(** The heap's OID generator (also used for fresh class ids by upper
    layers, so that every identifier in a database is unique). *)

val alloc : t -> tag:string -> Oid.t
(** Allocate a fresh empty cell. *)

val alloc_with : t -> tag:string -> (string * Value.t) list -> Oid.t

val alloc_raw : t -> oid:Oid.t -> tag:string -> Oid.t
(** Install a cell under a caller-chosen OID (snapshot loading). The
    generator is advanced past [oid].
    @raise Invalid_argument if the OID is already allocated. *)

val free : t -> Oid.t -> unit
(** Remove the cell. Freeing an unknown OID is a no-op. *)

val mem : t -> Oid.t -> bool
val find : t -> Oid.t -> cell option

val find_exn : t -> Oid.t -> cell
(** @raise Not_found if the OID is not allocated. *)

val tag_of : t -> Oid.t -> string
val set_tag : t -> Oid.t -> string -> unit

val get_slot : t -> Oid.t -> string -> Value.t
(** Missing slots read as [Value.Null]. *)

val slot_reader : t -> string -> Oid.t -> Value.t
(** [slot_reader t name] specializes {!get_slot} to [name]: the returned
    closure captures the cell table once, for compiled-predicate read
    loops. Missing slots read as [Value.Null].
    @raise Not_found if the OID is not allocated. *)

val set_slot : t -> Oid.t -> string -> Value.t -> unit
val remove_slot : t -> Oid.t -> string -> unit
val slot_names : t -> Oid.t -> string list
val slots : t -> Oid.t -> (string * Value.t) list

val copy_slots : t -> src:Oid.t -> dst:Oid.t -> unit
(** Copy every slot of [src] onto [dst] (intersection-class
    reclassification support). *)

val swap_identity : t -> Oid.t -> Oid.t -> unit
(** Exchange the contents (tag and slots) of two cells, leaving each OID in
    place: the "swap mechanism" that preserves object identity during
    intersection-class dynamic reclassification (Section 4.2). *)

val iter : t -> (cell -> unit) -> unit
val fold : t -> init:'a -> f:('a -> cell -> 'a) -> 'a

val capacity : t -> int
(** One past the largest OID currently representable without growing
    the cell array; [fold] over the whole heap equals [fold_range]
    over [\[0, capacity)].  Shard bound for parallel range walks. *)

val fold_range : t -> lo:int -> hi:int -> init:'a -> f:('a -> cell -> 'a) -> 'a
(** [fold] restricted to cells with [lo <= oid < hi] (clamped),
    ascending OID order within the range. *)

val cell_count : t -> int

val data_bytes : t -> int
(** Total payload bytes of all slot values currently stored. *)
