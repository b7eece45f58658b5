(** Text snapshots of a heap.

    A stable, diffable line format (no [Marshal]) so that persisted
    databases survive compiler upgrades and can be inspected by hand:

    {v
    TSE-HEAP 1
    gen <next-oid>
    obj <oid> <tag> <nslots>
    slot <name> <value-encoding>
    ...
    end
    v} *)

val to_string : Heap.t -> string
(** Cells in ascending OID order. With a global {!Tse_pool.Pool} of more
    than one domain and at least its work-size threshold of cells,
    OID-range chunks render in parallel and are concatenated in chunk
    order, so the bytes never depend on the pool size. *)

val of_string : string -> Heap.t
(** The one decoder: a sequential line machine on the calling domain.
    @raise Failure on malformed input, naming the offending line number. *)

val save : Heap.t -> string -> unit
(** [save heap path] writes atomically (temp file + fsync + rename),
    guarded by the ["snapshot.*"] failpoints (see {!Storage}). *)

val load : string -> Heap.t
(** @raise Failure if the file cannot be read (the message names the
    path) or on malformed content. *)

val roundtrip_equal : Heap.t -> Heap.t -> bool
(** Structural equality of two heaps (same cells, tags and slots); used by
    the persistence tests. *)
