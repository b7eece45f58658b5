module Oid = Tse_store.Oid
module Value = Tse_store.Value
module Codec = Tse_store.Codec

let add_cid buf cid = Codec.add_int buf (Oid.to_int cid)

let read_cid s pos =
  let i, pos = Codec.read_int s pos in
  (Oid.of_int i, pos)

let add_prop buf (p : Prop.t) =
  Codec.add_int buf p.uid;
  Codec.add_str buf p.name;
  Codec.add_int buf (Oid.to_int p.origin);
  Codec.add_bool buf p.promoted;
  match p.body with
  | Prop.Stored { ty; default; required } ->
    Buffer.add_char buf 's';
    Value.encode_ty buf ty;
    Value.encode buf default;
    Codec.add_bool buf required
  | Prop.Method e ->
    Buffer.add_char buf 'm';
    Expr.encode buf e

let read_prop s pos =
  let uid, pos = Codec.read_int s pos in
  let name, pos = Codec.read_str s pos in
  let origin, pos = Codec.read_int s pos in
  let promoted, pos = Codec.read_bool s pos in
  if pos >= String.length s then Codec.fail_at pos "eof in prop";
  match s.[pos] with
  | 's' ->
    let ty, pos = Value.decode_ty s (pos + 1) in
    let default, pos = Value.decode s pos in
    let required, pos = Codec.read_bool s pos in
    ( Prop.make ~uid ~name
        ~body:(Prop.Stored { ty; default; required })
        ~origin:(Oid.of_int origin) ~promoted,
      pos )
  | 'm' ->
    let e, pos = Expr.decode s (pos + 1) in
    ( Prop.make ~uid ~name ~body:(Prop.Method e) ~origin:(Oid.of_int origin)
        ~promoted,
      pos )
  | c -> Codec.fail_at pos (Printf.sprintf "bad prop body %C" c)

let add_derivation buf = function
  | Klass.Select (src, pred) ->
    Buffer.add_char buf 'S';
    add_cid buf src;
    Expr.encode buf pred
  | Klass.Hide (names, src) ->
    Buffer.add_char buf 'H';
    Codec.add_list buf Codec.add_str names;
    add_cid buf src
  | Klass.Refine (props, src) ->
    Buffer.add_char buf 'R';
    Codec.add_list buf add_prop props;
    add_cid buf src
  | Klass.Refine_from { src; prop_name; target } ->
    Buffer.add_char buf 'F';
    add_cid buf src;
    Codec.add_str buf prop_name;
    add_cid buf target
  | Klass.Union (a, b) ->
    Buffer.add_char buf 'U';
    add_cid buf a;
    add_cid buf b
  | Klass.Intersect (a, b) ->
    Buffer.add_char buf 'N';
    add_cid buf a;
    add_cid buf b
  | Klass.Difference (a, b) ->
    Buffer.add_char buf 'D';
    add_cid buf a;
    add_cid buf b

let read_derivation s pos =
  if pos >= String.length s then Codec.fail_at pos "eof in derivation";
  match s.[pos] with
  | 'S' ->
    let src, pos = read_cid s (pos + 1) in
    let pred, pos = Expr.decode s pos in
    (Klass.Select (src, pred), pos)
  | 'H' ->
    let names, pos = Codec.read_list Codec.read_str s (pos + 1) in
    let src, pos = read_cid s pos in
    (Klass.Hide (names, src), pos)
  | 'R' ->
    let props, pos = Codec.read_list read_prop s (pos + 1) in
    let src, pos = read_cid s pos in
    (Klass.Refine (props, src), pos)
  | 'F' ->
    let src, pos = read_cid s (pos + 1) in
    let prop_name, pos = Codec.read_str s pos in
    let target, pos = read_cid s pos in
    (Klass.Refine_from { src; prop_name; target }, pos)
  | 'U' ->
    let a, pos = read_cid s (pos + 1) in
    let b, pos = read_cid s pos in
    (Klass.Union (a, b), pos)
  | 'N' ->
    let a, pos = read_cid s (pos + 1) in
    let b, pos = read_cid s pos in
    (Klass.Intersect (a, b), pos)
  | 'D' ->
    let a, pos = read_cid s (pos + 1) in
    let b, pos = read_cid s pos in
    (Klass.Difference (a, b), pos)
  | c -> Codec.fail_at pos (Printf.sprintf "bad derivation tag %C" c)

let add_class buf (k : Klass.t) =
  add_cid buf k.cid;
  Codec.add_str buf k.name;
  (match k.kind with
  | Klass.Base -> Buffer.add_char buf 'B'
  | Klass.Virtual d ->
    Buffer.add_char buf 'V';
    add_derivation buf d);
  Codec.add_list buf add_cid k.supers;
  Codec.add_list buf add_prop k.local_props

let read_class s pos =
  let cid, pos = read_cid s pos in
  let name, pos = Codec.read_str s pos in
  if pos >= String.length s then Codec.fail_at pos "eof in class";
  let kind, pos =
    match s.[pos] with
    | 'B' -> (Klass.Base, pos + 1)
    | 'V' ->
      let d, pos = read_derivation s (pos + 1) in
      (Klass.Virtual d, pos)
    | c -> Codec.fail_at pos (Printf.sprintf "bad kind %C" c)
  in
  let supers, pos = Codec.read_list read_cid s pos in
  let props, pos = Codec.read_list read_prop s pos in
  (Klass.Unsafe.make ~cid ~name ~kind ~local_props:props ~supers ~subs:[], pos)

let add_graph buf graph =
  add_cid buf (Schema_graph.root graph);
  Schema_graph.classes graph
  |> List.sort (fun (a : Klass.t) b -> Oid.compare a.cid b.cid)
  |> Codec.add_list buf add_class

let encode_graph graph =
  let buf = Buffer.create 1024 in
  add_graph buf graph;
  Buffer.contents buf

let read_graph ~gen s pos =
  let root, pos = read_cid s pos in
  let graph = Schema_graph.restore_empty ~gen ~root in
  let classes, pos = Codec.read_list read_class s pos in
  List.iter (Schema_graph.install graph) classes;
  Schema_graph.relink_subs graph;
  (graph, pos)

let decode_graph ~gen s =
  let graph, pos = read_graph ~gen s 0 in
  if pos <> String.length s then Codec.fail_at pos "trailing schema bytes";
  graph
