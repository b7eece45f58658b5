(* Figure 2's class hierarchy on a durable database, [Person] carrying
   [name], [age] and [ssn], populated from the bench's own inputs so
   their size is known exactly: every object holds a 6-byte [name] and
   two ints. *)

open Tse_core
module Oid = Tse_store.Oid
module Value = Tse_store.Value
module Prop = Tse_schema.Prop
module Schema_graph = Tse_schema.Schema_graph
module Database = Tse_db.Database

let policy = Tse_db.Durable.Group 8
let names = List.map fst Gen.university

let build t =
  let db = Durable_tse.db t in
  let graph = Database.graph db in
  let stored = Prop.stored ~origin:(Oid.of_int 0) in
  let person_props =
    [ stored "name" Value.TString; stored "age" Value.TInt; stored "ssn" Value.TInt ]
  in
  let cids =
    List.fold_left
      (fun acc (name, supers) ->
        let props = if String.equal name "Person" then person_props else [] in
        let supers = List.map (fun s -> List.assoc s acc) supers in
        let cid = Schema_graph.register_base graph ~name ~props ~supers in
        Database.note_new_class db cid;
        acc @ [ (name, cid) ])
      [] Gen.university
  in
  Durable_tse.commit t;
  Array.of_list (List.map snd cids)

let user_bytes_per_object = 6 + 8 + 8

let ssn i = 100_000 + i

let attrs i =
  [
    ("name", Value.String (Printf.sprintf "p%05d" (i mod 100_000)));
    ("age", Value.Int (18 + (i * 7 mod 50)));
    ("ssn", Value.Int (ssn i));
  ]

(* A growable set of live objects per class, with O(1) random pick and
   removal. *)
module Pool = struct
  type t = { mutable a : Oid.t array; mutable n : int }

  let create () = { a = Array.make 16 (Oid.of_int 0); n = 0 }

  let add p o =
    if p.n = Array.length p.a then begin
      let a = Array.make (2 * p.n) (Oid.of_int 0) in
      Array.blit p.a 0 a 0 p.n;
      p.a <- a
    end;
    p.a.(p.n) <- o;
    p.n <- p.n + 1

  let pick p rng = p.a.(Random.State.int rng p.n)

  let take p rng =
    let i = Random.State.int rng p.n in
    let o = p.a.(i) in
    p.n <- p.n - 1;
    p.a.(i) <- p.a.(p.n);
    o
end

(* [n] objects spread round-robin over the classes, committed in batches. *)
let populate t cids ~n =
  let db = Durable_tse.db t in
  let pools = Array.map (fun _ -> Pool.create ()) cids in
  for i = 0 to n - 1 do
    let k = i mod Array.length cids in
    Pool.add pools.(k) (Database.create_object db cids.(k) ~init:(attrs i));
    if i mod 500 = 499 then Durable_tse.commit t
  done;
  Durable_tse.commit t;
  pools

let file_bytes dir =
  Array.fold_left
    (fun acc f ->
      match Unix.stat (Filename.concat dir f) with
      | { Unix.st_kind = Unix.S_REG; st_size; _ } -> acc + st_size
      | _ -> acc)
    0 (Sys.readdir dir)

let snapshot_bytes dir =
  match Unix.stat (Filename.concat dir "snapshot") with
  | st -> st.Unix.st_size
  | exception Unix.Unix_error _ -> 0

let rec remove_tree path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* Implementation objects (heap cells) per conceptual object. *)
let impl_per_object db =
  float (Tse_store.Heap.cell_count (Database.heap db)) /. float (Database.object_count db)

let fingerprint t =
  Digest.string (Verify.db_fingerprint ~history:(Durable_tse.history t) (Durable_tse.db t))
