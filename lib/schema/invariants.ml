module Oid = Tse_store.Oid

(* Strict ancestors from the records alone: a corrupted graph may hold a
   cycle, on which the graph's memoized closure would never return. Raises
   [Invalid_argument] on a dangling superclass edge, as the graph does. *)
let strict_ancestors graph cid =
  let seen = ref Oid.Set.empty in
  let rec visit c =
    List.iter
      (fun sup ->
        if not (Oid.Set.mem sup !seen) then begin
          seen := Oid.Set.add sup !seen;
          visit sup
        end)
      (Schema_graph.supers graph c)
  in
  visit cid;
  !seen

let check graph =
  let problems = ref [] in
  let add fmt = Format.kasprintf (fun s -> problems := s :: !problems) fmt in
  let root = Schema_graph.root graph in
  let classes = Schema_graph.classes graph in
  (* A dangling superclass edge makes the ancestor closure raise; such a
     class has [None] here, and the endpoint-existence clause below
     reports it. *)
  let ancestors =
    List.map
      (fun (k : Klass.t) ->
        match strict_ancestors graph k.cid with
        | anc -> Some anc
        | exception Invalid_argument _ -> None)
      classes
  in
  (* acyclicity: a class must never be its own strict ancestor *)
  List.iter2
    (fun (k : Klass.t) anc ->
      match anc with
      | Some anc when Oid.Set.mem k.cid anc -> add "cycle through class %s" k.name
      | Some _ | None -> ())
    classes ancestors;
  (* edge symmetry and endpoint existence *)
  List.iter
    (fun (k : Klass.t) ->
      List.iter
        (fun sup ->
          match Schema_graph.find graph sup with
          | None -> add "%s lists missing superclass %s" k.name (Oid.to_string sup)
          | Some ksup ->
            if not (List.exists (Oid.equal k.cid) ksup.subs) then
              add "edge %s->%s not symmetric" ksup.name k.name)
        k.supers;
      List.iter
        (fun sub ->
          match Schema_graph.find graph sub with
          | None -> add "%s lists missing subclass %s" k.name (Oid.to_string sub)
          | Some ksub ->
            if not (List.exists (Oid.equal k.cid) ksub.supers) then
              add "edge %s->%s not symmetric" k.name ksub.name)
        k.subs)
    classes;
  (* rootedness *)
  List.iter2
    (fun (k : Klass.t) anc ->
      if Oid.equal k.cid root then begin
        if k.supers <> [] then add "root has superclasses"
      end
      else begin
        if k.supers = [] then add "class %s is disconnected (no superclass)" k.name;
        match anc with
        | Some anc when not (Oid.Set.mem root anc) ->
          add "class %s is not a descendant of the root" k.name
        | Some _ | None -> ()
      end)
    classes ancestors;
  (* unique names *)
  let names = Hashtbl.create 16 in
  List.iter
    (fun (k : Klass.t) ->
      if Hashtbl.mem names k.name then add "duplicate class name %s" k.name
      else Hashtbl.add names k.name ())
    classes;
  (* virtual sources exist *)
  List.iter
    (fun (k : Klass.t) ->
      List.iter
        (fun src ->
          if not (Schema_graph.mem graph src) then
            add "virtual class %s has missing source %s" k.name
              (Oid.to_string src))
        (Klass.sources k))
    classes;
  (* unique local property names *)
  List.iter
    (fun (k : Klass.t) ->
      let seen = Hashtbl.create 8 in
      List.iter
        (fun (p : Prop.t) ->
          if Hashtbl.mem seen p.name then
            add "class %s defines property %s twice" k.name p.name
          else Hashtbl.add seen p.name ())
        k.local_props)
    classes;
  List.rev !problems

let check_exn graph =
  match check graph with
  | [] -> ()
  | problems ->
    failwith ("schema invariants violated:\n  " ^ String.concat "\n  " problems)
