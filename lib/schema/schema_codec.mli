(** Position-based persistence codecs for schema structures (properties,
    derivations, class records, whole graphs), shared by the catalog
    format ({!Tse_views.Catalog}) and the durability layer's snapshots
    and WAL schema records ({!Tse_db.Durable}).

    All readers raise {!Tse_store.Codec.Corrupt} on malformed input. *)

val add_cid : Buffer.t -> Klass.cid -> unit
val read_cid : string -> int -> Klass.cid * int
val add_prop : Buffer.t -> Prop.t -> unit
val read_prop : string -> int -> Prop.t * int
val add_derivation : Buffer.t -> Klass.derivation -> unit
val read_derivation : string -> int -> Klass.derivation * int

val add_graph : Buffer.t -> Schema_graph.t -> unit
(** Root cid + every class, sorted by cid — a deterministic image, equal
    for equal schemas (the durability layer diffs successive images to
    decide whether a commit must log the schema). *)

val read_graph :
  gen:Tse_store.Oid.Gen.t -> string -> int -> Schema_graph.t * int
(** Rebuild a graph (sharing the heap's OID generator) from {!add_graph}
    output. *)

val encode_graph : Schema_graph.t -> string
val decode_graph : gen:Tse_store.Oid.Gen.t -> string -> Schema_graph.t
(** {!read_graph} over a whole string. *)
