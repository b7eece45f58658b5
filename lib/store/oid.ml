type t = int

let equal = Int.equal
let compare = Int.compare

(* OIDs key the hottest tables in the system (heap cells, slicing impl
   maps, extents), so hashing must stay in OCaml: an inline
   multiplicative mix instead of the generic [Hashtbl.hash] C call per
   probe. The shift folds high bits back down because Hashtbl masks to
   the low bits of the bucket array. *)
let hash x =
  let h = x * 0x9E3779B1 in
  (h lxor (h lsr 23)) land max_int
let to_int t = t
let of_int i = i
let pp ppf t = Format.fprintf ppf "#%d" t
let to_string t = "#" ^ string_of_int t

module Gen = struct
  type t = { mutable next : int; mutable count : int }

  let create () = { next = 1; count = 0 }

  let fresh g =
    let o = g.next in
    g.next <- g.next + 1;
    g.count <- g.count + 1;
    o

  let count g = g.count
  let peek g = g.next
  let advance_to g next = if next > g.next then g.next <- next

  let mark_used g oid =
    if oid >= g.next then begin
      g.next <- oid + 1;
      g.count <- g.count + 1
    end
end

module Set = Set.Make (Int)
module Map = Map.Make (Int)

(* Growable array keyed directly by the (dense, sequential) OID: one
   bounds check and one load per probe, no hashing, and ascending-OID
   iteration walks memory sequentially. The mutable-table subset of the
   [Tbl] interface, for structures on scan-hot paths. *)
module Dense = struct
  type 'a t = { mutable arr : 'a option array; mutable live : int }

  let create n = { arr = Array.make (Stdlib.max n 1) None; live = 0 }

  let find_opt t o =
    if o < 0 || o >= Array.length t.arr then None else Array.unsafe_get t.arr o

  let mem t o = find_opt t o <> None

  let replace t o v =
    let n = Array.length t.arr in
    if o >= n then begin
      let grown = Array.make (Stdlib.max (2 * n) (o + 1)) None in
      Array.blit t.arr 0 grown 0 n;
      t.arr <- grown
    end;
    if t.arr.(o) = None then t.live <- t.live + 1;
    t.arr.(o) <- Some v

  let remove t o =
    if find_opt t o <> None then begin
      t.arr.(o) <- None;
      t.live <- t.live - 1
    end

  let iter f t =
    Array.iteri (fun o -> function Some v -> f o v | None -> ()) t.arr

  let fold f t init =
    let acc = ref init in
    Array.iteri (fun o -> function Some v -> acc := f o v !acc | None -> ())
      t.arr;
    !acc

  let length t = t.live
end
module Tbl = struct
  include Hashtbl.Make (struct
    type nonrec t = t

    let equal = equal
    let hash = hash
  end)

  let find_or_add tbl k make =
    match find_opt tbl k with
    | Some v -> v
    | None ->
      let v = make k in
      replace tbl k v;
      v
end
