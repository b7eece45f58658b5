module Oid = Tse_store.Oid
module Prop = Tse_schema.Prop
module Klass = Tse_schema.Klass
module Schema_graph = Tse_schema.Schema_graph
module Type_info = Tse_schema.Type_info
module Database = Tse_db.Database
module Trace = Tse_obs.Trace
module Failpoint = Tse_store.Failpoint

type cid = Klass.cid

let fp_classify = "evolve.classify"
let fp_integrate = "evolve.integrate"
let fp_reclassify = "evolve.reclassify"
let () = List.iter Failpoint.declare [ fp_classify; fp_integrate; fp_reclassify ]

let usable_props graph cid =
  Type_info.full_type graph cid
  |> List.filter_map (fun (_, e) ->
         match e with Type_info.Single p -> Some p | Type_info.Conflict _ -> None)

(* Common properties of two types: the same property (uid) in both, or two
   signature-equal definitions — the lowest common supertype (Section 3.2). *)
let common_props a_props b_props =
  List.filter
    (fun (p : Prop.t) ->
      List.exists
        (fun (q : Prop.t) -> Prop.same_prop p q || Prop.signature_equal p q)
        b_props)
    a_props

let intended_type db derivation =
  let graph = Database.graph db in
  let ft = usable_props graph in
  match derivation with
  | Klass.Select (src, _) -> ft src
  | Klass.Hide (names, src) ->
    List.filter (fun (p : Prop.t) -> not (List.mem p.name names)) (ft src)
  | Klass.Refine (props, src) -> ft src @ props
  | Klass.Refine_from { src; prop_name; target } -> begin
    match Type_info.find_usable graph src prop_name with
    | Some p -> ft target @ [ p ]
    | None -> ft target
  end
  | Klass.Union (a, b) -> common_props (ft a) (ft b)
  | Klass.Intersect (a, b) ->
    let fa = ft a in
    fa
    @ List.filter
        (fun (q : Prop.t) ->
          not (List.exists (fun (p : Prop.t) -> String.equal p.name q.name) fa))
        (ft b)
  | Klass.Difference (a, _) -> ft a

let find_duplicate db cid =
  let graph = Database.graph db in
  let k = Schema_graph.find_exn graph cid in
  match Klass.derivation k with
  | None -> None
  | Some d ->
    List.find_map
      (fun (other : Klass.t) ->
        if Oid.equal other.cid cid then None
        else
          match Klass.derivation other with
          | Some d' when Klass.derivation_equal d d' -> Some other.cid
          | Some _ | None -> None)
      (Schema_graph.classes graph)

(* Minimal elements of the set of common strict ancestors of [a] and [b]. *)
let minimal_common_ancestors graph a b =
  let commons =
    Oid.Set.inter (Schema_graph.ancestors graph a) (Schema_graph.ancestors graph b)
  in
  Oid.Set.filter
    (fun c ->
      not
        (Oid.Set.exists
           (fun d ->
             (not (Oid.equal c d))
             && Schema_graph.is_strict_ancestor graph ~anc:c ~desc:d)
           commons))
    commons

(* Remove direct edges around [cid] that became transitive-redundant. *)
let repair_edges graph cid =
  let k = Schema_graph.find_exn graph cid in
  let check ~sup ~sub =
    if Schema_graph.is_redundant_edge graph ~sup ~sub then
      Schema_graph.remove_edge graph ~sup ~sub
  in
  (* edges skipping over [cid]: from its supers to its subs *)
  List.iter
    (fun sup ->
      List.iter
        (fun sub ->
          let ksup = Schema_graph.find_exn graph sup in
          if List.exists (Oid.equal sub) ksup.subs then check ~sup ~sub)
        k.subs)
    k.supers

let link_by_derivation graph cid derivation intended =
  let add ~sup ~sub =
    if not (Oid.equal sup sub) then Schema_graph.add_edge graph ~sup ~sub
  in
  match derivation with
  | Klass.Select (src, _) | Klass.Difference (src, _) -> add ~sup:src ~sub:cid
  | Klass.Refine (_, src) -> add ~sup:src ~sub:cid
  | Klass.Refine_from { src; target; _ } ->
    add ~sup:target ~sub:cid;
    (* the property's provider becomes a superclass too — in the TSE
       translation the provider is the primed class, giving Figure 7's
       TA' under both TA and Student'; skip the edge when the provider is
       already an ancestor of the target *)
    if not (Schema_graph.is_ancestor_or_self graph ~anc:src ~desc:target) then
      add ~sup:src ~sub:cid
  | Klass.Intersect (a, b) ->
    add ~sup:a ~sub:cid;
    add ~sup:b ~sub:cid
  | Klass.Hide (_, src) ->
    (* the hide class slots in above its source, below the minimal
       ancestors whose whole type its own (reduced) type still covers; if
       the hidden property was inherited from everywhere, it climbs to the
       root *)
    let covered sup =
      List.for_all
        (fun (p : Prop.t) ->
          List.exists
            (fun (q : Prop.t) -> Prop.same_prop p q || Prop.signature_equal p q)
            intended)
        (usable_props graph sup)
    in
    let candidates =
      Oid.Set.filter covered (Schema_graph.ancestors graph src)
    in
    let minimal =
      Oid.Set.filter
        (fun c ->
          not
            (Oid.Set.exists
               (fun d ->
                 (not (Oid.equal c d))
                 && Schema_graph.is_strict_ancestor graph ~anc:c ~desc:d)
               candidates))
        candidates
    in
    Oid.Set.iter (fun sup -> add ~sup ~sub:cid) minimal;
    add ~sup:cid ~sub:src
  | Klass.Union (a, b) ->
    let commons = minimal_common_ancestors graph a b in
    Oid.Set.iter
      (fun s ->
        if not (Oid.equal s (Schema_graph.root graph)) then add ~sup:s ~sub:cid)
      commons;
    if not (Schema_graph.is_ancestor_or_self graph ~anc:b ~desc:a) then
      add ~sup:cid ~sub:a;
    if not (Schema_graph.is_ancestor_or_self graph ~anc:a ~desc:b) then
      add ~sup:cid ~sub:b

(* Materialize intended properties the class does not inherit at its
   position: MultiView code promotion. Shares the uid so diamond paths and
   local/inherited duplicates resolve to a single property. All of them
   are added in one mutation, in [intended]'s order. *)
let materialize_props graph cid intended =
  let k = Schema_graph.find_exn graph cid in
  let promoted =
    List.fold_left
      (fun acc (p : Prop.t) ->
        let inherited =
          List.exists (Prop.same_prop p)
            (Type_info.inherited_candidates graph cid p.name)
        in
        let local =
          Klass.has_local_prop k p.name
          || List.exists (fun (q : Prop.t) -> String.equal q.name p.name) acc
        in
        if inherited || local then acc
        else (if Oid.equal p.origin cid then p else Prop.promote p) :: acc)
      [] intended
  in
  if promoted <> [] then
    Schema_graph.add_local_props graph cid (List.rev promoted)

let integrate db cid =
  let graph = Database.graph db in
  (* classify: decide where the class belongs (or that it already exists) *)
  let placement =
    Trace.with_span "evolve.classify" @@ fun () ->
    Failpoint.hit fp_classify;
    match find_duplicate db cid with
    | Some existing -> `Duplicate existing
    | None ->
      let k = Schema_graph.find_exn graph cid in
      let derivation =
        match Klass.derivation k with
        | Some d -> d
        | None -> invalid_arg "Classification.integrate: base class"
      in
      (* intended type computed before any linking mutates inheritance *)
      let intended = intended_type db derivation in
      let prior_ancestors =
        List.map
          (fun src -> (src, Schema_graph.ancestors graph src))
          (Klass.sources k)
      in
      link_by_derivation graph cid derivation intended;
      (* never leave the new class disconnected (Section 6.6.1's ROOT rule) *)
      if (Schema_graph.find_exn graph cid).supers = [] then
        Schema_graph.add_edge graph ~sup:(Schema_graph.root graph) ~sub:cid;
      `Placed (k, intended, prior_ancestors)
  in
  match placement with
  | `Duplicate existing ->
    Schema_graph.remove graph cid;
    Database.note_removed_class db cid;
    existing
  | `Placed (k, intended, prior_ancestors) ->
    (* integrate: promote properties and repair inheritance edges *)
    (Trace.with_span "evolve.integrate" @@ fun () ->
     Failpoint.hit fp_integrate;
     materialize_props graph cid intended;
     repair_edges graph cid;
     Database.note_new_class db cid);
    (* reclassify: populate the new class's extent from its sources *)
    (Trace.with_span "evolve.reclassify" @@ fun () ->
     Failpoint.hit fp_reclassify;
     let candidates =
       List.fold_left
         (fun acc src -> Oid.Set.union acc (Database.extent db src))
         Oid.Set.empty (Klass.sources k)
     in
     Database.admit_class db cid ~prior_ancestors candidates);
    cid
