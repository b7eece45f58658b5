module Oid = Tse_store.Oid

type cid = Klass.cid

(* A value derived from a graph, tagged with the epoch it was made at. *)
type 'a cell = { make : unit -> 'a; mutable value : (int * 'a) option }

(* One per-class memo table of this graph. *)
type slot = Slot : 'a Type.Id.t * 'a Oid.Tbl.t -> slot

type t = {
  classes : Klass.t Oid.Tbl.t;
  (* name -> cid, kept by every mutator that adds, renames or drops a
     class *)
  names : (string, cid) Hashtbl.t;
  gen : Oid.Gen.t;
  root : cid;
  (* the schema epoch: moved by every mutator below, and by nothing else,
     because class records are private to this module *)
  mutable version : int;
  (* up-cone memos: the mutator that changes a class drops the entries of
     that class and of its descendants *)
  mutable memos : slot list;
}

let gen t = t.gen
let version t = t.version
let root t = t.root
let find t cid = Oid.Tbl.find_opt t.classes cid

let find_exn t cid =
  match find t cid with
  | Some k -> k
  | None -> invalid_arg (Printf.sprintf "Schema_graph: unknown class %s" (Oid.to_string cid))

let name_of t cid = (find_exn t cid).name
let mem t cid = Oid.Tbl.mem t.classes cid

let find_by_name t name =
  Option.bind (Hashtbl.find_opt t.names name) (find t)

let find_by_name_exn t name =
  match find_by_name t name with
  | Some k -> k
  | None -> invalid_arg (Printf.sprintf "Schema_graph: no class named %s" name)

let classes t = Oid.Tbl.fold (fun _ k acc -> k :: acc) t.classes []
let cids t = Oid.Tbl.fold (fun cid _ acc -> cid :: acc) t.classes []
let size t = Oid.Tbl.length t.classes
let supers t cid = (find_exn t cid).supers
let subs t cid = (find_exn t cid).subs

let closure next start =
  let seen = ref Oid.Set.empty in
  let rec visit cid =
    List.iter
      (fun c ->
        if not (Oid.Set.mem c !seen) then begin
          seen := Oid.Set.add c !seen;
          visit c
        end)
      (next cid)
  in
  visit start;
  !seen

let moved t = t.version <- t.version + 1

(* --- schema-epoch cells ---------------------------------------------- *)

let cell make = { make; value = None }

(* A hit only reads, so values warmed on one domain can be read from
   several. *)
let current t c =
  match c.value with
  | Some (at, v) when at = t.version -> v
  | Some _ | None ->
    let v = c.make () in
    c.value <- Some (t.version, v);
    v

(* --- up-cone memos --------------------------------------------------- *)

type 'a memo = 'a Type.Id.t

let memo () = Type.Id.make ()
let m_recomputes = Tse_obs.Metrics.counter "schema.memo.recomputes"

let memoize : type a. t -> a memo -> (cid -> a) -> cid -> a =
 fun t id compute cid ->
  let rec table : slot list -> a Oid.Tbl.t = function
    | Slot (id', tbl) :: rest -> begin
      match Type.Id.provably_equal id id' with
      | Some Type.Equal -> tbl
      | None -> table rest
    end
    | [] ->
      let tbl = Oid.Tbl.create 64 in
      t.memos <- Slot (id, tbl) :: t.memos;
      tbl
  in
  let tbl = table t.memos in
  match Oid.Tbl.find_opt tbl cid with
  | Some v -> v
  | None ->
    Tse_obs.Metrics.incr m_recomputes;
    let v = compute cid in
    Oid.Tbl.replace tbl cid v;
    v

(* Drop the entries of [x] and of every class below it. A class's value
   is made after its direct superclasses' (the [memoize] contract), so a
   table holding a class holds all of its superclasses: the walk down
   [subs] stops at a class no table holds, and a class it has emptied
   stops a second visit. *)
let drop_cone t x =
  let rec visit c =
    let held = ref false in
    List.iter
      (fun (Slot (_, tbl)) ->
        if Oid.Tbl.mem tbl c then begin
          Oid.Tbl.remove tbl c;
          held := true
        end)
      t.memos;
    if !held then List.iter visit (subs t c)
  in
  if t.memos <> [] then visit x

let anc_memo : Oid.Set.t memo = memo ()

let rec ancestors t cid =
  memoize t anc_memo
    (fun cid ->
      List.fold_left
        (fun acc sup -> Oid.Set.union acc (Oid.Set.add sup (ancestors t sup)))
        Oid.Set.empty (supers t cid))
    cid

let descendants t cid = closure (subs t) cid

let is_strict_ancestor t ~anc ~desc = Oid.Set.mem anc (ancestors t desc)

let is_ancestor_or_self t ~anc ~desc =
  Oid.equal anc desc || is_strict_ancestor t ~anc ~desc

let empty ~gen ~root ~version =
  { classes = Oid.Tbl.create 64; names = Hashtbl.create 64; gen; root;
    version; memos = [] }

let create ~gen =
  let root = Oid.Gen.fresh gen in
  let t = empty ~gen ~root ~version:0 in
  Oid.Tbl.replace t.classes root
    (Klass.Unsafe.make ~cid:root ~name:"Object" ~kind:Klass.Base
       ~local_props:[] ~supers:[] ~subs:[]);
  Hashtbl.replace t.names "Object" root;
  t

let check_fresh_name t name =
  match find_by_name t name with
  | Some k ->
    invalid_arg
      (Printf.sprintf "Schema_graph: class name %s already used by %s" name
         (Oid.to_string k.cid))
  | None -> ()

let link t ~sup ~sub =
  let ksup = find_exn t sup and ksub = find_exn t sub in
  if not (List.exists (Oid.equal sub) ksup.subs) then begin
    Klass.Unsafe.set_subs ksup (ksup.subs @ [ sub ]);
    Klass.Unsafe.set_supers ksub (ksub.supers @ [ sup ]);
    drop_cone t sub;
    moved t
  end

let unlink t ~sup ~sub =
  let ksup = find_exn t sup and ksub = find_exn t sub in
  Klass.Unsafe.set_subs ksup
    (List.filter (fun c -> not (Oid.equal c sub)) ksup.subs);
  Klass.Unsafe.set_supers ksub
    (List.filter (fun c -> not (Oid.equal c sup)) ksub.supers);
  drop_cone t sub;
  moved t

let add_edge t ~sup ~sub =
  if Oid.equal sup sub then invalid_arg "Schema_graph.add_edge: self edge";
  if is_strict_ancestor t ~anc:sub ~desc:sup then
    invalid_arg
      (Printf.sprintf "Schema_graph.add_edge: %s-%s would create a cycle"
         (name_of t sup) (name_of t sub));
  let ksub = find_exn t sub in
  (* A real superclass supersedes the default root attachment. *)
  if
    (not (Oid.equal sup t.root))
    && List.exists (Oid.equal t.root) ksub.supers
  then unlink t ~sup:t.root ~sub;
  link t ~sup ~sub

let remove_edge t ~sup ~sub =
  unlink t ~sup ~sub;
  let ksub = find_exn t sub in
  if ksub.supers = [] && not (Oid.equal sub t.root) then
    link t ~sup:t.root ~sub

let register t ~name kind props =
  check_fresh_name t name;
  let cid = Oid.Gen.fresh t.gen in
  let local_props = List.map (fun p -> Prop.reoriginate p cid) props in
  Oid.Tbl.replace t.classes cid
    (Klass.Unsafe.make ~cid ~name ~kind ~local_props ~supers:[] ~subs:[]);
  Hashtbl.replace t.names name cid;
  moved t;
  cid

let register_base t ~name ~props ~supers =
  let cid = register t ~name Klass.Base props in
  (match supers with
  | [] -> link t ~sup:t.root ~sub:cid
  | supers -> List.iter (fun sup -> add_edge t ~sup ~sub:cid) supers);
  cid

let register_virtual t ~name derivation props =
  register t ~name (Klass.Virtual derivation) props

(* Forget [k]'s name, unless another class has taken it since. *)
let unname t (k : Klass.t) =
  match Hashtbl.find_opt t.names k.name with
  | Some c when Oid.equal c k.cid -> Hashtbl.remove t.names k.name
  | Some _ | None -> ()

let remove t cid =
  if Oid.equal cid t.root then invalid_arg "Schema_graph.remove: root";
  let k = find_exn t cid in
  (* unlinking [cid] from its superclasses drops its cone *)
  List.iter (fun sup -> unlink t ~sup ~sub:cid) k.supers;
  List.iter (fun sub -> remove_edge t ~sup:cid ~sub) k.subs;
  unname t k;
  Oid.Tbl.remove t.classes cid;
  moved t

(* --- class-record mutators ----------------------------------------- *)

let rename t cid name =
  check_fresh_name t name;
  let k = find_exn t cid in
  unname t k;
  Klass.Unsafe.set_name k name;
  Hashtbl.replace t.names name cid;
  drop_cone t cid;
  moved t

let set_local_props t cid f =
  let k = find_exn t cid in
  Klass.Unsafe.set_local_props k (f k.local_props);
  drop_cone t cid;
  moved t

let without name =
  List.filter (fun (p : Prop.t) -> not (String.equal p.name name))

let add_local_props t cid (props : Prop.t list) =
  let k = find_exn t cid in
  ignore
    (List.fold_left
       (fun seen (p : Prop.t) ->
         if Klass.has_local_prop k p.name || List.mem p.name seen then
           invalid_arg
             (Printf.sprintf "Schema_graph.add_local_prop: %s already defines %s"
                k.name p.name);
         p.name :: seen)
       [] props);
  set_local_props t cid (fun ps -> ps @ props)

let add_local_prop t cid p = add_local_props t cid [ p ]

let remove_local_prop t cid name = set_local_props t cid (without name)

let replace_local_prop t cid (p : Prop.t) =
  set_local_props t cid (fun ps -> without p.name ps @ [ p ])

let subclasses_within t cid ~in_set =
  let seen = ref Oid.Set.empty in
  let order = ref [] in
  let rec visit c =
    if not (Oid.Set.mem c !seen) then begin
      seen := Oid.Set.add c !seen;
      if Oid.Set.mem c in_set then order := c :: !order;
      List.iter visit (subs t c)
    end
  in
  visit cid;
  List.rev !order

let topo_order t =
  let indegree = Oid.Tbl.create 64 in
  Oid.Tbl.iter
    (fun cid (k : Klass.t) -> Oid.Tbl.replace indegree cid (List.length k.supers))
    t.classes;
  let queue = Queue.create () in
  Oid.Tbl.iter (fun cid d -> if d = 0 then Queue.add cid queue) indegree;
  let order = ref [] in
  while not (Queue.is_empty queue) do
    let cid = Queue.pop queue in
    order := cid :: !order;
    List.iter
      (fun sub ->
        let d = Oid.Tbl.find indegree sub - 1 in
        Oid.Tbl.replace indegree sub d;
        if d = 0 then Queue.add sub queue)
      (subs t cid)
  done;
  let order = List.rev !order in
  assert (List.length order = size t);
  order

let paths_down t ~src ~dst =
  let rec walk c path =
    let path = c :: path in
    if Oid.equal c dst then [ List.rev path ]
    else List.concat_map (fun sub -> walk sub path) (subs t c)
  in
  walk src []

let is_redundant_edge t ~sup ~sub =
  List.exists
    (fun mid ->
      (not (Oid.equal mid sub)) && is_strict_ancestor t ~anc:mid ~desc:sub)
    (subs t sup)

(* A copy starts with empty memos, so it also serves as an uncached
   reference for the original. *)
let copy t =
  let t' =
    { (empty ~gen:t.gen ~root:t.root ~version:t.version) with
      names = Hashtbl.copy t.names }
  in
  Oid.Tbl.iter
    (fun cid (k : Klass.t) ->
      Oid.Tbl.replace t'.classes cid
        (Klass.Unsafe.make ~cid ~name:k.name ~kind:k.kind
           ~local_props:k.local_props ~supers:k.supers ~subs:k.subs))
    t.classes;
  t'

let restore_empty ~gen ~root =
  Oid.Gen.mark_used gen root;
  empty ~gen ~root ~version:0

let install t (k : Klass.t) =
  Oid.Gen.mark_used t.gen k.cid;
  Option.iter (unname t) (find t k.cid);
  Oid.Tbl.replace t.classes k.cid k;
  Hashtbl.replace t.names k.name k.cid;
  t.memos <- [];
  moved t

let relink_subs t =
  Oid.Tbl.iter (fun _ k -> Klass.Unsafe.set_subs k []) t.classes;
  let order = Oid.Tbl.fold (fun cid _ acc -> cid :: acc) t.classes [] in
  List.iter
    (fun sub ->
      List.iter
        (fun sup ->
          let ksup = find_exn t sup in
          if not (List.exists (Oid.equal sub) ksup.subs) then
            Klass.Unsafe.set_subs ksup (ksup.subs @ [ sub ]))
        (find_exn t sub).supers)
    (List.sort Oid.compare order);
  t.memos <- [];
  moved t

let pp ppf t =
  let order = topo_order t in
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun cid ->
      let k = find_exn t cid in
      Format.fprintf ppf "%s%s <- {%s}@ " k.name
        (if Klass.is_virtual k then "*" else "")
        (String.concat ", " (List.map (name_of t) k.supers)))
    order;
  Format.fprintf ppf "@]"
