module Oid = Tse_store.Oid
module Value = Tse_store.Value
module Prop = Tse_schema.Prop
module Klass = Tse_schema.Klass
module Expr = Tse_schema.Expr
module Schema_graph = Tse_schema.Schema_graph
module Type_info = Tse_schema.Type_info
module Database = Tse_db.Database
module Ops = Tse_algebra.Ops
module View_schema = Tse_views.View_schema
module Generation = Tse_views.Generation

type cid = Klass.cid

let rejected fmt = Format.kasprintf (fun s -> raise (Change.Rejected s)) fmt

let resolve view name =
  match View_schema.cid_of view name with
  | Some cid -> cid
  | None -> rejected "class %s is not in view %s" name view.View_schema.view_name

(* ------------------------------------------------------------------ *)
(* Mapping old view classes to their primed replacements               *)
(* ------------------------------------------------------------------ *)

type ctx = {
  db : Database.t;
  view : View_schema.t;
  (* the old view's generated hierarchy, computed once: a change adds
     classes outside the old view but no is-a relationship between two of
     its classes, so the hierarchy stays valid until [stitch] *)
  edges : (cid * cid) list;
  mapping : (cid * cid) list ref;  (* old -> new, insertion ordered *)
}

let map_add ctx ~old_cid ~new_cid =
  ctx.mapping := !(ctx.mapping) @ [ (old_cid, new_cid) ]

let mapped ctx cid =
  List.find_map
    (fun (o, n) -> if Oid.equal o cid then Some n else None)
    !(ctx.mapping)

let map_or_id ctx cid = Option.value (mapped ctx cid) ~default:cid

(* Replacement is-a edges between primed classes: mirror every old view
   edge whose endpoints changed, so that the generated view hierarchy of
   the new view equals the old one (Proposition A's E'' = E). The deleted
   edge, when the change is delete_edge, is excluded by the caller. *)
let stitch ?(except = []) ctx =
  let graph = Database.graph ctx.db in
  List.iter
    (fun (sup, sub) ->
      let skip =
        List.exists
          (fun (s, b) -> Oid.equal s sup && Oid.equal b sub)
          except
      in
      if not skip then begin
        let sup' = map_or_id ctx sup and sub' = map_or_id ctx sub in
        if
          (not (Oid.equal sup' sup) || not (Oid.equal sub' sub))
          && (not (Schema_graph.is_ancestor_or_self graph ~anc:sup' ~desc:sub'))
          && not (Schema_graph.is_ancestor_or_self graph ~anc:sub' ~desc:sup')
        then Schema_graph.add_edge graph ~sup:sup' ~sub:sub'
      end)
    ctx.edges

(* Every edge a translation adds holds in the extents already (DESIGN.md
   §7), so admission settles every membership and nothing is left to
   refresh. The oracle still re-runs the full fixpoint over the members of
   every replaced class, as the reference the incremental twin is
   compared against. *)
let refresh_members ctx =
  if Database.full_reclassify ctx.db then
    let objs =
      List.fold_left
        (fun acc (old_cid, _) -> Oid.Set.union acc (Database.extent ctx.db old_cid))
        Oid.Set.empty !(ctx.mapping)
    in
    Tse_obs.Trace.with_span "evolve.refresh" @@ fun () ->
    Oid.Set.iter (Database.reclassify ctx.db) objs

(* The replacement view: every mapped class substituted (keeping its
   view-local name — the renaming step of Section 6.1.3). *)
let finish ctx =
  List.fold_left
    (fun view (old_cid, new_cid) ->
      View_schema.substitute view ~old_cid ~new_cid)
    (View_schema.copy ctx.view)
    !(ctx.mapping)

let make_ctx db view =
  { db; view; edges = Generation.edges (Database.graph db) view; mapping = ref [] }

(* The direct subclasses of [cid] in the old view. *)
let direct_subs ctx cid =
  List.filter_map
    (fun (sup, sub) -> if Oid.equal sup cid then Some sub else None)
    ctx.edges

(* ------------------------------------------------------------------ *)
(* 6.1 / 6.3: add_attribute, add_method                                 *)
(* ------------------------------------------------------------------ *)

(* Shared skeleton: refine C with the new property, then propagate to the
   subclasses within the view via inheritance-refine, stopping where a
   local same-named property overrides (Section 6.1.2). *)
let add_property db view ~cls_name ~prop_name ~mk_prop =
  let ctx = make_ctx db view in
  let graph = Database.graph db in
  let cls = resolve view cls_name in
  if Type_info.has_prop graph cls prop_name then
    rejected "%s already defined for %s" prop_name cls_name;
  let c' =
    Ops.refine db ~name:(Ops.primed_name db (Schema_graph.name_of graph cls))
      ~props:[ mk_prop () ] ~src:cls
  in
  map_add ctx ~old_cid:cls ~new_cid:c';
  let rec walk tmp =
    List.iter
      (fun sub ->
        if mapped ctx sub = None then
          if Type_info.has_prop graph sub prop_name then
            (* a same-named property is already visible here — locally
               defined or inherited along another path — and overrides:
               propagation stops (Section 6.1.2) *)
            ()
          else begin
            let sub' =
              Ops.refine_from db
                ~name:(Ops.primed_name db (Schema_graph.name_of graph sub))
                ~src:(map_or_id ctx tmp) ~prop_name ~target:sub
            in
            map_add ctx ~old_cid:sub ~new_cid:sub';
            walk sub
          end)
      (direct_subs ctx tmp)
  in
  walk cls;
  stitch ctx;
  refresh_members ctx;
  finish ctx

(* ------------------------------------------------------------------ *)
(* 6.2 / 6.4: delete_attribute, delete_method                           *)
(* ------------------------------------------------------------------ *)

let delete_property db view ~cls_name ~prop_name ~want_stored =
  let ctx = make_ctx db view in
  let graph = Database.graph db in
  let cls = resolve view cls_name in
  let view_set = View_schema.class_set view in
  (match Type_info.find graph cls prop_name with
  | None -> rejected "%s is not defined for %s" prop_name cls_name
  | Some (Type_info.Conflict _) -> ()
  | Some (Type_info.Single p) ->
    if want_stored && not (Prop.is_stored p) then
      rejected "%s is a method; use delete_method" prop_name;
    if (not want_stored) && Prop.is_stored p then
      rejected "%s is an attribute; use delete_attribute" prop_name);
  (* only local properties may be deleted (full-inheritance invariant) —
     where "local" is either a genuinely local (possibly overriding)
     definition, or view-relative local: the class is the uppermost one in
     the view exposing the property (Section 6.2.1) *)
  if
    (not (Klass.has_local_prop (Schema_graph.find_exn graph cls) prop_name))
    && not (Type_info.is_uppermost_in graph ~view:view_set cls prop_name)
  then
    rejected "%s is inherited within the view; delete it at its uppermost class"
      prop_name;
  (* the property identity being deleted at [cls] *)
  let deleted_uid =
    match Type_info.find graph cls prop_name with
    | Some (Type_info.Single p) -> Some p.Prop.uid
    | Some (Type_info.Conflict _) | None -> None
  in
  (* a suppressed same-named attribute to restore afterwards *)
  let suppressed = Type_info.inherited_candidates graph cls prop_name in
  let suppressed =
    List.filter
      (fun (p : Prop.t) -> Some p.uid <> deleted_uid)
      suppressed
  in
  (* hide the property from cls and its view subclasses, stopping where a
     different local definition overrides it *)
  let rec walk tmp =
    List.iter
      (fun sub ->
        if mapped ctx sub = None then begin
          let k = Schema_graph.find_exn graph sub in
          let overriding =
            match Klass.local_prop k prop_name with
            | Some p -> Some p.Prop.uid <> deleted_uid
            | None -> false
          in
          if not overriding then begin
            let sub' =
              Ops.hide db
                ~name:(Ops.primed_name db (Schema_graph.name_of graph sub))
                ~props:[ prop_name ] ~src:sub
            in
            map_add ctx ~old_cid:sub ~new_cid:sub';
            walk sub
          end
        end)
      (direct_subs ctx tmp)
  in
  let cls' =
    Ops.hide db ~name:(Ops.primed_name db (Schema_graph.name_of graph cls))
      ~props:[ prop_name ] ~src:cls
  in
  map_add ctx ~old_cid:cls ~new_cid:cls';
  walk cls;
  (* restore the suppressed attribute, if any (Section 6.2.2) *)
  (match suppressed with
  | [] -> ()
  | p :: _ ->
    let super_c = p.Prop.origin in
    ctx.mapping :=
      List.map
        (fun (old_cid, hidden_cid) ->
          let restored =
            Ops.refine_from db
              ~name:(Ops.primed_name db (Schema_graph.name_of graph old_cid))
              ~src:super_c ~prop_name ~target:hidden_cid
          in
          (old_cid, restored))
        !(ctx.mapping));
  stitch ctx;
  refresh_members ctx;
  finish ctx

(* ------------------------------------------------------------------ *)
(* 6.5: add_edge                                                        *)
(* ------------------------------------------------------------------ *)

let add_edge db view ~sup_name ~sub_name =
  let ctx = make_ctx db view in
  let graph = Database.graph db in
  let csup = resolve view sup_name and csub = resolve view sub_name in
  if Oid.equal csup csub then rejected "add_edge: %s-%s is a self edge" sup_name sub_name;
  if Schema_graph.is_strict_ancestor graph ~anc:csup ~desc:csub then
    rejected "add_edge: %s is already a superclass of %s" sup_name sub_name;
  if Schema_graph.is_strict_ancestor graph ~anc:csub ~desc:csup then
    rejected "add_edge: %s-%s would create a cycle" sup_name sub_name;
  let sup_props = Tse_classifier.Classification.intended_type db (Klass.Hide ([], csup)) in
  (* phase 1: the new subclass side inherits C_sup's properties; same-named
     local properties override (footnote 15) *)
  let refine_with w =
    let props =
      List.filter
        (fun (p : Prop.t) ->
          match Type_info.find graph w p.name with
          | Some _ -> false (* overriding: not added *)
          | None -> true)
        sup_props
    in
    if props = [] then
      (* nothing to inherit: still prime the class so extent bookkeeping
         and renaming stay uniform — an empty refine is just the identity,
         realized as select-true to keep the derivation well-formed *)
      Ops.select db ~name:(Ops.primed_name db (Schema_graph.name_of graph w))
        ~src:w (Expr.bool true)
    else
      Ops.refine db ~name:(Ops.primed_name db (Schema_graph.name_of graph w))
        ~props ~src:w
  in
  let rec walk_subs tmp =
    List.iter
      (fun sub ->
        if mapped ctx sub = None then begin
          let sub' = refine_with sub in
          map_add ctx ~old_cid:sub ~new_cid:sub';
          walk_subs sub
        end)
      (direct_subs ctx tmp)
  in
  let csub' = refine_with csub in
  map_add ctx ~old_cid:csub ~new_cid:csub';
  walk_subs csub;
  (* phase 2: the extent of C_sub flows into C_sup and its superclasses
     (top-down so each union classifies beneath the previous one) *)
  let super_chain =
    let ancs =
      Oid.Set.inter (Schema_graph.ancestors graph csup) (View_schema.class_set view)
    in
    let in_order =
      List.filter (fun c -> Oid.Set.mem c ancs) (Schema_graph.topo_order graph)
    in
    in_order @ [ csup ]
  in
  List.iter
    (fun v ->
      if not (Schema_graph.is_strict_ancestor graph ~anc:v ~desc:csub) then begin
        let v' =
          Ops.union db ~name:(Ops.primed_name db (Schema_graph.name_of graph v))
            v
            (map_or_id ctx csub)
        in
        map_add ctx ~old_cid:v ~new_cid:v'
      end)
    super_chain;
  stitch ctx;
  (* the new is-a relationship itself *)
  let new_sup = map_or_id ctx csup and new_sub = map_or_id ctx csub in
  if not (Schema_graph.is_ancestor_or_self graph ~anc:new_sup ~desc:new_sub) then
    Schema_graph.add_edge graph ~sup:new_sup ~sub:new_sub;
  refresh_members ctx;
  finish ctx

(* The sources a class's extent is computed from: a [Refine_from]'s
   property provider is not one. *)
let extent_sources (k : Klass.t) =
  match k.kind with
  | Klass.Base -> []
  | Klass.Virtual (Klass.Refine_from { target; _ }) -> [ target ]
  | Klass.Virtual _ -> Klass.sources k

(* A replayer: [replay ~basename cid] re-derives [cid] with every class in
   [subst] replaced by its substitute (Figure 13 (e)), drawing the names of
   the classes it registers from [basename]. A class none of whose sources
   changes is kept as it is. With [~providers:false] a [Refine_from] keeps
   its property provider and follows only its target, the source of its
   extent. Results are memoized across calls, so a source shared by
   several derivations is replayed once. *)
let replayer ?(providers = true) db ~subst =
  let graph = Database.graph db in
  let replayed = Oid.Tbl.create 16 in
  List.iter (fun (o, n) -> Oid.Tbl.replace replayed o n) subst;
  let rec sub ~basename cid =
    match Oid.Tbl.find_opt replayed cid with
    | Some c -> c
    | None ->
      let c = replay_one ~basename cid in
      Oid.Tbl.replace replayed cid c;
      c
  and replay_one ~basename cid =
    match (Schema_graph.find_exn graph cid).kind with
    | Klass.Base -> cid
    | Klass.Virtual d ->
      let sub = sub ~basename in
      let d' =
        match d with
        | Klass.Select (c, pred) -> Klass.Select (sub c, pred)
        | Klass.Hide (ps, c) -> Klass.Hide (ps, sub c)
        | Klass.Refine (props, c) -> Klass.Refine (props, sub c)
        | Klass.Refine_from { src; prop_name; target } ->
          let src = if providers then sub src else src in
          Klass.Refine_from { src; prop_name; target = sub target }
        | Klass.Union (a, b) ->
          let a = sub a in
          Klass.Union (a, sub b)
        | Klass.Intersect (a, b) ->
          let a = sub a in
          Klass.Intersect (a, sub b)
        | Klass.Difference (a, b) ->
          let a = sub a in
          Klass.Difference (a, sub b)
      in
      if Klass.derivation_equal d d' then cid
      else
        (* the name must be drawn after the sources are replayed, or nested
           replays would race for the same fresh name *)
        let name = Ops.fresh_name db basename in
        match d' with
        | Klass.Select (src, pred) -> Ops.select db ~name ~src pred
        | Klass.Hide (props, src) -> Ops.hide db ~name ~props ~src
        | Klass.Refine (props, src) -> Ops.refine db ~name ~props ~src
        | Klass.Refine_from { src; prop_name; target } ->
          Ops.refine_from db ~name ~src ~prop_name ~target
        | Klass.Union (a, b) -> Ops.union db ~name a b
        | Klass.Intersect (a, b) -> Ops.intersect db ~name a b
        | Klass.Difference (a, b) -> Ops.difference db ~name a b
  in
  sub

(* ------------------------------------------------------------------ *)
(* 6.6: delete_edge                                                     *)
(* ------------------------------------------------------------------ *)

(* The class plus its principal-source chain: Select/Hide/Refine follow
   their source, Refine_from its target, and the binary operators their
   first operand — the thread along which the translator derives "the same
   view class, one version earlier". *)
let version_lineage graph cid =
  let rec go acc c =
    let acc = Oid.Set.add c acc in
    match (Schema_graph.find_exn graph c).Klass.kind with
    | Klass.Base -> acc
    | Klass.Virtual d ->
      let next =
        match d with
        | Klass.Select (s, _) | Klass.Hide (_, s) | Klass.Refine (_, s) -> s
        | Klass.Refine_from { target; _ } -> target
        | Klass.Union (a, _) | Klass.Intersect (a, _) | Klass.Difference (a, _)
          -> a
      in
      if Oid.Set.mem next acc then acc else go acc next
  in
  go Oid.Set.empty cid

(* The global is-a edges that survive the deletion of view edge (esup,
   esub) — the "assuming the edge has been deleted" hypothetical of Section
   6.6: [open_subs c] lists the subclasses [c] still reaches in one step.
   It must run on the global graph, not on the generated view hierarchy:
   transitive reduction erases the redundant-but-vital direct edges of
   Figure 11's diamond. An edge (x, y) is treated as deleted when x is a
   version of the edge's superclass end and y a version of its subclass
   end: such an edge is the deleted relationship itself, possibly wearing
   an older name. Every other path — through another view class, or
   through an unrelated global class outside the view — is a different
   is-a relationship and stays open; the previous whole-source-lineage
   exclusion wrongly closed those alternate routes, which is what the
   Proposition B replays pinned. *)
let deleted_edge_subs graph ~esup ~esub =
  let sub_versions = version_lineage graph esub in
  let blocked = version_lineage graph esup in
  fun c ->
    List.filter
      (fun d ->
        (not (Oid.equal c esup && Oid.equal d esub))
        && not (Oid.Set.mem d sub_versions && Oid.Set.mem c blocked))
      (Schema_graph.subs graph c)

(* A non-empty path from [a] down to [b] along [open_subs]. *)
let reaches open_subs a b =
  let seen = ref Oid.Set.empty in
  let rec go c =
    Oid.equal c b
    || List.exists
         (fun d ->
           (not (Oid.Set.mem d !seen))
           &&
           (seen := Oid.Set.add d !seen;
            go d))
         (open_subs c)
  in
  (not (Oid.equal a b)) && go a

(* The classes strictly below [a] along [open_subs], not walking on below a
   class where [stop] holds. *)
let below ?(stop = fun _ -> false) open_subs a =
  let seen = ref Oid.Set.empty in
  let rec go c =
    List.iter
      (fun d ->
        if not (Oid.Set.mem d !seen) then begin
          seen := Oid.Set.add d !seen;
          if not (stop d) then go d
        end)
      (open_subs c)
  in
  go a;
  !seen

(* Uppermost providers within the view of the property identified by
   [uid]: view classes exposing it with no view member above them doing
   so. *)
let view_providers graph view ~name ~uid =
  let has c =
    match Type_info.find graph c name with
    | Some (Type_info.Single p) -> p.Prop.uid = uid
    | Some (Type_info.Conflict ps) ->
      List.exists (fun (p : Prop.t) -> p.Prop.uid = uid) ps
    | None -> false
  in
  List.filter
    (fun c ->
      has c
      && not
           (List.exists
              (fun other ->
                (not (Oid.equal other c))
                && has other
                && Schema_graph.is_strict_ancestor graph ~anc:other ~desc:c)
              (View_schema.classes view)))
    (View_schema.classes view)

(* findProperties: the properties [w] inherits only through the deleted
   edge — no uppermost provider still reaches [w] once the edge is gone. *)
let view_find_properties db view ~open_subs w =
  let graph = Database.graph db in
  Type_info.full_type graph w
  |> List.filter_map (fun (name, entry) ->
         let candidates =
           match entry with
           | Type_info.Single p -> [ p ]
           | Type_info.Conflict ps -> ps
         in
         let survives (p : Prop.t) =
           let providers = view_providers graph view ~name ~uid:p.Prop.uid in
           List.exists (fun c -> Oid.equal c w || reaches open_subs c w) providers
           (* a property with no in-view provider comes from outside the
              view (or is local): it cannot be lost by the edge *)
           || providers = []
         in
         if List.exists survives candidates then None else Some name)

let delete_edge db view ~sup_name ~sub_name ~connected_to =
  let ctx = make_ctx db view in
  let graph = Database.graph db in
  let csup = resolve view sup_name and csub = resolve view sub_name in
  if
    not
      (List.exists
         (fun (s, b) -> Oid.equal s csup && Oid.equal b csub)
         ctx.edges)
  then rejected "delete_edge: %s is not a direct superclass of %s in the view" sup_name sub_name;
  let upper =
    Option.map
      (fun name ->
        let c = resolve view name in
        if not (Schema_graph.is_strict_ancestor graph ~anc:c ~desc:csup) then
          rejected "delete_edge: %s must be a superclass of %s" name sup_name;
        c)
      connected_to
  in
  (* phase A: superclasses of C_sup lose C_sub's instances, except those
     still visible through other paths (the commonSub correction). The
     connected_to class and the classes above it reach C_sub again through
     the reattachment edge, so they keep C_sub's instances and are not
     replaced. *)
  let open_subs = deleted_edge_subs graph ~esup:csup ~esub:csub in
  let still_super v =
    reaches open_subs v csub
    || Option.fold upper ~none:false ~some:(fun u ->
           Schema_graph.is_ancestor_or_self graph ~anc:v ~desc:u)
  in
  let replaced =
    let ancs =
      Oid.Set.inter (Schema_graph.ancestors graph csup) (View_schema.class_set view)
    in
    List.filter (fun c -> Oid.Set.mem c ancs) (Schema_graph.topo_order graph) @ [ csup ]
    |> List.filter (fun v -> not (still_super v))
  in
  let is_replaced c = List.exists (Oid.equal c) replaced in
  (* a view class below a replaced class whose extent is derived from one
     (a partition's select, say) holds C_sub's instances too: it is
     re-derived from the replacement rather than hung under it. C_sub keeps
     its own derivation, and its subclasses are phase B's. *)
  let subs_chain = Generation.descendants_in_view graph view csub in
  let sub_side = Oid.Set.of_list subs_chain in
  let reads_replaced =
    let memo = Oid.Tbl.create 16 in
    let rec go c =
      Oid.Tbl.find_or_add memo c (fun c ->
          (not (Oid.equal c csub))
          && (is_replaced c
             || List.exists go (extent_sources (Schema_graph.find_exn graph c))))
    in
    go
  in
  let rederived =
    List.filter
      (fun b ->
        (not (Oid.Set.mem b sub_side))
        && (not (is_replaced b))
        && List.exists
             (fun v -> Schema_graph.is_strict_ancestor graph ~anc:v ~desc:b)
             replaced
        && reads_replaced b)
      (View_schema.classes view)
  in
  (* what [v] keeps of C_sub: the uppermost classes of the global graph
     below both once the edge is gone (a common subclass outside the view,
     say the operand of a coalesced class, still carries its instances into
     [v]), and every other view subclass of [v], whose instances may be
     C_sub's too *)
  let below_sub = below open_subs csub in
  let kept v =
    let commons =
      Oid.Set.inter below_sub
        (below ~stop:(fun d -> Oid.Set.mem d below_sub) open_subs v)
      |> Oid.Set.elements
    in
    let uppermost =
      List.filter
        (fun d ->
          not (List.exists (fun d' -> (not (Oid.equal d d')) && reaches open_subs d' d) commons))
        commons
    in
    uppermost
    @ List.filter_map
        (fun b ->
          if
            Oid.equal b csub
            || List.exists (Oid.equal b) rederived
            || List.exists (Oid.equal b) uppermost
          then None
          else Some (map_or_id ctx b))
        (direct_subs ctx v)
  in
  (* bottom-up, so that a replaced view subclass is kept as its
     replacement. v' = ((v - C_sub) + k1) + ... + kn: each step's first
     operand is the previous one, so every step is a version of [v] and a
     later deletion of the edge from [v] to a kept class blocks it. *)
  List.iter
    (fun v ->
      let vname = Schema_graph.name_of graph v in
      let d = Ops.difference db ~name:(Ops.fresh_name db (vname ^ "$diff")) v csub in
      let rec restore acc = function
        | [] ->
          Schema_graph.rename graph acc (Ops.primed_name db vname);
          acc
        | [ k ] -> Ops.union db ~name:(Ops.primed_name db vname) acc k
        | k :: ks -> restore (Ops.union db ~name:(Ops.fresh_name db (vname ^ "$x")) acc k) ks
      in
      map_add ctx ~old_cid:v ~new_cid:(restore d (kept v)))
    (List.rev replaced);
  let rederive = replayer ~providers:false db ~subst:((csub, csub) :: !(ctx.mapping)) in
  List.iter
    (fun b ->
      let bname = Schema_graph.name_of graph b in
      let b' =
        try rederive ~basename:(bname ^ "$r") b
        with Ops.Error m -> rejected "delete_edge: %s" m
      in
      Schema_graph.rename graph b' (Ops.primed_name db bname);
      map_add ctx ~old_cid:b ~new_cid:b')
    rederived;
  (* phase B: subclasses of C_sub lose the properties inherited only
     through the deleted edge *)
  List.iter
    (fun w ->
      let y = view_find_properties db view ~open_subs w in
      if y <> [] then begin
        let w' =
          Ops.hide db ~name:(Ops.primed_name db (Schema_graph.name_of graph w))
            ~props:y ~src:w
        in
        map_add ctx ~old_cid:w ~new_cid:w'
      end)
    subs_chain;
  stitch ctx ~except:[ (csup, csub) ];
  (* reattachment when C_sub would be left disconnected in the view *)
  (match upper with
  | Some u ->
    let sub' = map_or_id ctx csub in
    if not (Schema_graph.is_ancestor_or_self graph ~anc:u ~desc:sub') then
      Schema_graph.add_edge graph ~sup:u ~sub:sub'
  | None -> ());
  refresh_members ctx;
  finish ctx

(* ------------------------------------------------------------------ *)
(* 6.7: add_class                                                       *)
(* ------------------------------------------------------------------ *)

let add_class db view ~cls_name ~connected_to =
  let graph = Database.graph db in
  if View_schema.cid_of view cls_name <> None then
    rejected "add_class: %s already in view" cls_name;
  let global_name = Ops.fresh_name db cls_name in
  let cadd =
    match connected_to with
    | None ->
      (* no anchor: a fresh empty base class under the root *)
      let cid =
        Schema_graph.register_base graph ~name:global_name ~props:[] ~supers:[]
      in
      Database.note_new_class db cid;
      cid
    | Some sup_name ->
      let csup = resolve view sup_name in
      let origins = Macros.origin_classes db csup in
      let subst =
        List.map
          (fun origin ->
            let x =
              Schema_graph.register_base graph
                ~name:(Ops.fresh_name db (cls_name ^ "$x"))
                ~props:[] ~supers:[ origin ]
            in
            Database.note_new_class db x;
            (origin, x))
          origins
      in
      (* a base anchor is its own substitute: the new class itself *)
      let cadd =
        try replayer db ~subst ~basename:(cls_name ^ "$r") csup
        with Ops.Error m -> rejected "add_class: %s" m
      in
      Schema_graph.rename graph cadd global_name;
      (* guaranteed subclass (Section 6.7.3): make the view edge real *)
      if not (Schema_graph.is_ancestor_or_self graph ~anc:csup ~desc:cadd) then
        Schema_graph.add_edge graph ~sup:csup ~sub:cadd;
      cadd
  in
  let view' = View_schema.copy view in
  View_schema.add_class view' ~as_name:cls_name graph cadd;
  view'

(* ------------------------------------------------------------------ *)
(* 6.8 / 6.9: delete_class, insert_class, delete_class_2                *)
(* ------------------------------------------------------------------ *)

let delete_class _db view ~cls_name =
  let cid = resolve view cls_name in
  let view' = View_schema.copy view in
  View_schema.remove_class view' cid;
  view'

(* The classifier hands back an existing class for a derivation it already
   knows; a change may not add a class its view already has. *)
let not_in_view view what cid =
  match View_schema.local_name view cid with
  | Some name -> rejected "%s: the derived class is %s, already in the view" what name
  | None -> ()

let rec apply db view change =
  match change with
  | Change.Add_attribute { cls; def } ->
    add_property db view ~cls_name:cls ~prop_name:def.attr_name
      ~mk_prop:(fun () ->
        Prop.stored ~origin:(Oid.of_int 0) ~default:def.default
          ~required:def.required def.attr_name def.ty)
  | Change.Add_method { cls; method_name; body } ->
    add_property db view ~cls_name:cls ~prop_name:method_name ~mk_prop:(fun () ->
        Prop.method_ ~origin:(Oid.of_int 0) method_name body)
  | Change.Delete_attribute { cls; attr_name } ->
    delete_property db view ~cls_name:cls ~prop_name:attr_name ~want_stored:true
  | Change.Delete_method { cls; method_name } ->
    delete_property db view ~cls_name:cls ~prop_name:method_name
      ~want_stored:false
  | Change.Add_edge { sup; sub } -> add_edge db view ~sup_name:sup ~sub_name:sub
  | Change.Delete_edge { sup; sub; connected_to } ->
    delete_edge db view ~sup_name:sup ~sub_name:sub ~connected_to
  | Change.Add_class { cls; connected_to } ->
    add_class db view ~cls_name:cls ~connected_to
  | Change.Delete_class { cls } -> delete_class db view ~cls_name:cls
  | Change.Rename_class { old_name; new_name } ->
    let cid = resolve view old_name in
    if View_schema.cid_of view new_name <> None then
      rejected "rename_class: %s already names a class in the view" new_name;
    let view' = View_schema.copy view in
    View_schema.rename view' cid new_name;
    view'
  | Change.Partition_class { cls; predicate; into_true; into_false } ->
    (* Section 9 extension, object-preserving form: the partitions are two
       complementary select classes below the original *)
    let graph = Database.graph db in
    let cid = resolve view cls in
    List.iter
      (fun n ->
        if View_schema.cid_of view n <> None then
          rejected "partition_class: %s already in view" n)
      [ into_true; into_false ];
    let ctrue =
      try Ops.select db ~name:(Ops.fresh_name db into_true) ~src:cid predicate
      with Ops.Error m -> rejected "partition_class: %s" m
    in
    let cfalse =
      Ops.select db
        ~name:(Ops.fresh_name db into_false)
        ~src:cid (Expr.Not predicate)
    in
    List.iter (not_in_view view "partition_class") [ ctrue; cfalse ];
    let view' = View_schema.copy view in
    View_schema.add_class view' ~as_name:into_true graph ctrue;
    View_schema.add_class view' ~as_name:into_false graph cfalse;
    view'
  | Change.Coalesce_classes { a; b; as_name } ->
    let graph = Database.graph db in
    let ca = resolve view a and cb = resolve view b in
    if Oid.equal ca cb then rejected "coalesce_classes: same class";
    (match View_schema.cid_of view as_name with
    | Some c when not (Oid.equal c ca || Oid.equal c cb) ->
      rejected "coalesce_classes: %s already in view" as_name
    | Some _ | None -> ());
    let fused =
      try Ops.union db ~name:(Ops.fresh_name db as_name) ca cb
      with Ops.Error m -> rejected "coalesce_classes: %s" m
    in
    not_in_view view "coalesce_classes" fused;
    let view' = View_schema.copy view in
    View_schema.remove_class view' ca;
    View_schema.remove_class view' cb;
    View_schema.add_class view' ~as_name graph fused;
    view'
  | Change.Insert_class { cls; sup; sub } ->
    (* Section 6.9.1: add_class + add_edge *)
    ignore (resolve view sup);
    ignore (resolve view sub);
    let view = apply db view (Change.Add_class { cls; connected_to = Some sup }) in
    apply db view (Change.Add_edge { sup = cls; sub })
  | Change.Delete_class_2 { cls } ->
    (* Section 6.9.2: rewire every subclass to the superclasses, then cut
       the class loose and drop it from the view *)
    let graph = Database.graph db in
    let cdel = resolve view cls in
    let subs = Generation.direct_subs_in_view graph view cdel in
    let sups = Generation.direct_supers_in_view graph view cdel in
    let name_of_in v c =
      match View_schema.local_name v c with
      | Some n -> n
      | None -> Schema_graph.name_of graph c
    in
    let view =
      List.fold_left
        (fun view sub ->
          let sub_name = name_of_in view sub in
          let view =
            apply db view
              (Change.Delete_edge
                 { sup = cls; sub = sub_name; connected_to = None })
          in
          List.fold_left
            (fun view sup ->
              let sup_name = name_of_in view sup in
              try
                apply db view (Change.Add_edge { sup = sup_name; sub = sub_name })
              with Change.Rejected _ -> view (* already a superclass *))
            view sups)
        view subs
    in
    (* finally cut the class loose from its own superclasses: its local
       extent becomes invisible to them (Section 6.9.2) *)
    let view =
      List.fold_left
        (fun view sup ->
          let sup_name = name_of_in view sup in
          try
            apply db view
              (Change.Delete_edge
                 { sup = sup_name; sub = cls; connected_to = None })
          with Change.Rejected _ -> view)
        view sups
    in
    apply db view (Change.Delete_class { cls })

let class_mapping db view change =
  (* re-run on a context to surface the mapping; apply builds it anew *)
  let before = View_schema.classes view in
  let after = apply db view change in
  List.filter_map
    (fun old_cid ->
      match View_schema.local_name view old_cid with
      | None -> None
      | Some lname -> (
        match View_schema.cid_of after lname with
        | Some new_cid when not (Oid.equal new_cid old_cid) ->
          Some (old_cid, new_cid)
        | Some _ | None -> None))
    before
