(* Cross-feature integration scenarios and failure injection: rejected
   changes must leave no debris, composites interrupted mid-way must leave
   a consistent database, and evolution, updates, merging and persistence
   must compose. *)

open Tse_store
open Tse_schema
open Tse_db
open Tse_views
open Tse_core

let check = Alcotest.check
let vpp = Alcotest.testable Value.pp Value.equal

let fixture () =
  let u = Tse_workload.University.build () in
  ignore (Tse_workload.University.populate u ~n:18);
  (u, Tsem.of_database u.db)

let test_rejected_change_leaves_no_debris () =
  let u, tsem = fixture () in
  ignore (Tsem.define_view_by_names tsem ~name:"VS" [ "Person"; "Student"; "TA" ]);
  let classes_before = Schema_graph.size (Database.graph u.db) in
  let version_before = (Tsem.current tsem "VS").View_schema.version in
  (* gpa exists: the add must be rejected *)
  (try
     ignore
       (Tsem.evolve tsem ~view:"VS"
          (Change.Add_attribute { cls = "Student"; def = Change.attr "gpa" Value.TFloat }));
     Alcotest.fail "expected rejection"
   with Change.Rejected _ -> ());
  check Alcotest.int "no classes created" classes_before
    (Schema_graph.size (Database.graph u.db));
  check Alcotest.int "no version registered" version_before
    (Tsem.current tsem "VS").View_schema.version;
  Alcotest.(check (list string)) "consistent" [] (Database.check u.db)

let test_interrupted_composite_is_consistent () =
  (* insert_class = add_class + add_edge; make the second step fail by
     using an anchor that yields a cycle. The database must stay
     consistent even though the first step already ran. *)
  let u, tsem = fixture () in
  ignore (Tsem.define_view_by_names tsem ~name:"VS" [ "Person"; "Student" ]);
  (try
     ignore
       (Tsem.evolve tsem ~view:"VS"
          (* sup = sub makes the edge step reject *)
          (Change.Insert_class { cls = "Mid"; sup = "Student"; sub = "Student" }));
     Alcotest.fail "expected rejection"
   with Change.Rejected _ -> ());
  Alcotest.(check (list string)) "consistent after interruption" []
    (Database.check u.db);
  (* the view was not registered at a new version *)
  check Alcotest.int "version unchanged" 0
    (Tsem.current tsem "VS").View_schema.version

let test_update_through_every_view_version () =
  (* one object, updated through three schema versions of one view, each
     version exposing more attributes; all versions see the shared state *)
  let u, tsem = fixture () in
  ignore (Tsem.define_view_by_names tsem ~name:"VS" [ "Person"; "Student" ]);
  let v0 = Tsem.current tsem "VS" in
  let v1 =
    Tsem.evolve tsem ~view:"VS"
      (Change.Add_attribute { cls = "Student"; def = Change.attr "register" Value.TBool })
  in
  let v2 =
    Tsem.evolve tsem ~view:"VS"
      (Change.Add_attribute { cls = "Student"; def = Change.attr "email" Value.TString })
  in
  let s0 = View_schema.cid_of_exn v0 "Student" in
  let s1 = View_schema.cid_of_exn v1 "Student" in
  let s2 = View_schema.cid_of_exn v2 "Student" in
  (* create through the OLDEST version *)
  let o = Tse_update.Generic.create u.db s0 ~init:[ ("name", Value.String "zed") ] in
  (* visible and updatable through all three *)
  List.iter
    (fun s -> Alcotest.(check bool) "visible" true (Oid.Set.mem o (Database.extent u.db s)))
    [ s0; s1; s2 ];
  Tse_update.Generic.set u.db [ o ] [ ("register", Value.Bool true) ];
  Tse_update.Generic.set u.db [ o ] [ ("email", Value.String "z@x") ];
  check vpp "v1 attr" (Value.Bool true) (Database.get_prop u.db o "register");
  check vpp "v2 attr" (Value.String "z@x") (Database.get_prop u.db o "email");
  (* the v0 program updates the shared name; v2 sees it *)
  Tse_update.Generic.set u.db [ o ] [ ("name", Value.String "zoe") ];
  check vpp "shared update" (Value.String "zoe") (Database.get_prop u.db o "name");
  Alcotest.(check (list string)) "consistent" [] (Database.check u.db)

let test_evolve_then_merge_then_persist () =
  (* the full product loop: two branches, merge, save, load, continue *)
  let u, tsem = fixture () in
  ignore (Tsem.define_view_by_names tsem ~name:"A" [ "Person"; "Student" ]);
  ignore (Tsem.define_view_by_names tsem ~name:"B" [ "Person"; "Student" ]);
  ignore
    (Tsem.evolve tsem ~view:"A"
       (Change.Add_attribute { cls = "Student"; def = Change.attr "x1" Value.TInt }));
  ignore
    (Tsem.evolve tsem ~view:"B"
       (Change.Add_attribute { cls = "Student"; def = Change.attr "x2" Value.TInt }));
  ignore (Merge.merge_current tsem ~view1:"A" ~view2:"B" ~new_name:"AB");
  let text = Catalog.to_string ~history:(Tsem.history tsem) u.db in
  let db', history' = Catalog.of_string text in
  let tsem' = Tsem.of_database db' in
  List.iter
    (fun name ->
      List.iter
        (fun v -> History.register (Tsem.history tsem') v)
        (History.versions history' name))
    (History.view_names history');
  (* the merged view survived persistence and can itself evolve *)
  let ab = Tsem.current tsem' "AB" in
  check Alcotest.int "merged view classes" 3 (View_schema.size ab);
  let local_student =
    List.find
      (fun n -> String.length n >= 7 && String.sub n 0 7 = "Student")
      (List.filter_map (View_schema.local_name ab) (View_schema.classes ab))
  in
  let v1 =
    Tsem.evolve tsem' ~view:"AB"
      (Change.Add_attribute { cls = local_student; def = Change.attr "x3" Value.TInt })
  in
  check Alcotest.int "merged view evolves" 1 v1.View_schema.version;
  Alcotest.(check (list string)) "loaded db consistent" [] (Database.check db')

let test_view_class_rename_is_local () =
  (* renaming inside a view never leaks to the global schema or others *)
  let u, tsem = fixture () in
  let v = Tsem.define_view_by_names tsem ~name:"VS" [ "Person"; "Student" ] in
  View_schema.rename v u.student "Pupil";
  check Alcotest.string "global name intact" "Student"
    (Schema_graph.name_of (Database.graph u.db) u.student);
  (* changes can now be addressed via the local name *)
  let v1 =
    Tsem.evolve tsem ~view:"VS"
      (Change.Add_attribute { cls = "Pupil"; def = Change.attr "tag" Value.TInt })
  in
  Alcotest.(check bool) "renamed class evolved" true
    (Type_info.has_prop (Database.graph u.db) (View_schema.cid_of_exn v1 "Pupil") "tag")

let test_ambiguity_must_be_renamed_to_invoke () =
  (* Section 6.1.1/6.5.1: conflicting same-named properties are allowed to
     coexist but cannot be invoked until the user renames them *)
  let db = Database.create () in
  let g = Database.graph db in
  let o0 = Oid.of_int 0 in
  let a =
    Schema_graph.register_base g ~name:"A"
      ~props:[ Prop.stored ~origin:o0 "x" Value.TInt ] ~supers:[]
  in
  let b =
    Schema_graph.register_base g ~name:"B"
      ~props:[ Prop.stored ~origin:o0 "x" Value.TString ] ~supers:[]
  in
  let c = Schema_graph.register_base g ~name:"C" ~props:[] ~supers:[ a; b ] in
  List.iter (Database.note_new_class db) [ a; b; c ];
  let o = Database.create_object db c ~init:[] in
  (try
     ignore (Database.get_prop db o "x");
     Alcotest.fail "ambiguous access should fail"
   with Expr.Type_error _ -> ());
  (* disambiguate by renaming at the origin *)
  let ka = Schema_graph.find_exn g a in
  let px = Option.get (Klass.local_prop ka "x") in
  Schema_graph.remove_local_prop g a "x";
  Schema_graph.add_local_prop g a (Prop.rename px "ax");
  Database.set_attr db o "ax" (Value.Int 1);
  Database.set_attr db o "x" (Value.String "s");
  check vpp "renamed readable" (Value.Int 1) (Database.get_prop db o "ax");
  check vpp "survivor readable" (Value.String "s") (Database.get_prop db o "x")

let test_snapshot_corruption_detected () =
  let u, tsem = fixture () in
  let text = Catalog.to_string ~history:(Tsem.history tsem) u.db in
  (* truncate at several points: must raise, never loop or crash hard *)
  List.iter
    (fun frac ->
      let cut = String.length text * frac / 10 in
      let truncated = String.sub text 0 cut in
      match Catalog.of_string truncated with
      | _ -> Alcotest.fail "truncated catalog should not load"
      | exception Failure _ -> ()
      | exception Invalid_argument _ -> ())
    [ 1; 3; 5; 7; 9 ]

let test_stored_data_survives_promotion () =
  (* regression: deleting an attribute creates a hide class above the
     source whose intended type is materialized as promoted local copies
     (same uid). A stored-attribute READ must still resolve to the origin
     class's slice, where the data physically lives — not to the promoted
     copy's empty slice. *)
  let u, tsem = fixture () in
  ignore (Tsem.define_view_by_names tsem ~name:"VS" [ "Person"; "Student" ]);
  let o =
    Database.create_object u.db u.student
      ~init:[ ("name", Value.String "keep-me"); ("gpa", Value.Float 3.3) ]
  in
  (* several content changes, ending in a delete whose hide class lands
     directly under the root (every ancestor still has the attribute) *)
  ignore
    (Tsem.evolve tsem ~view:"VS"
       (Change.Add_attribute { cls = "Student"; def = Change.attr "z1" Value.TInt }));
  ignore
    (Tsem.evolve tsem ~view:"VS"
       (Change.Delete_attribute { cls = "Student"; attr_name = "gpa" }));
  (* the pre-existing stored values are still readable *)
  check vpp "name survives" (Value.String "keep-me") (Database.get_prop u.db o "name");
  (* ... and writable through the same resolution *)
  Database.set_attr u.db o "name" (Value.String "still-me");
  check vpp "write reaches the same slice" (Value.String "still-me")
    (Database.get_prop u.db o "name");
  Alcotest.(check (list string)) "consistent" [] (Database.check u.db)

let test_deep_evolution_chain () =
  (* 15 consecutive changes on one view: versions, consistency and
     updatability hold throughout; every intermediate fingerprint stays
     frozen *)
  let u, tsem = fixture () in
  ignore
    (Tsem.define_view_by_names tsem ~name:"VS"
       [ "Person"; "Student"; "Staff"; "TA" ]);
  let fingerprints = ref [] in
  for i = 1 to 15 do
    let change =
      match i mod 5 with
      | 0 ->
        Change.Add_class
          { cls = Printf.sprintf "Extra%d" i; connected_to = Some "Student" }
      | 1 ->
        Change.Add_attribute
          { cls = "Student"; def = Change.attr (Printf.sprintf "a%d" i) Value.TInt }
      | 2 ->
        Change.Add_method
          {
            cls = "Person";
            method_name = Printf.sprintf "m%d" i;
            body = Expr.int i;
          }
      | 3 ->
        Change.Delete_attribute
          { cls = "Student"; attr_name = Printf.sprintf "a%d" (i - 2) }
      | _ ->
        Change.Add_attribute
          { cls = "TA"; def = Change.attr (Printf.sprintf "t%d" i) Value.TBool }
    in
    ignore (Tsem.evolve tsem ~view:"VS" change);
    let v = Tsem.current tsem "VS" in
    fingerprints := (v.View_schema.version, Verify.view_fingerprint u.db v) :: !fingerprints
  done;
  check Alcotest.int "15 versions" 15 (Tsem.current tsem "VS").View_schema.version;
  Alcotest.(check (list string)) "consistent" [] (Database.check u.db);
  Alcotest.(check bool) "updatable" true
    (Verify.all_updatable u.db (Tsem.current tsem "VS"));
  (* frozen history *)
  List.iter
    (fun (version, fp) ->
      let v = Option.get (History.version (Tsem.history tsem) "VS" version) in
      check Alcotest.string
        (Printf.sprintf "version %d frozen" version)
        fp
        (Verify.view_fingerprint u.db v))
    !fingerprints

let suite =
  [
    Alcotest.test_case "rejected change leaves no debris" `Quick
      test_rejected_change_leaves_no_debris;
    Alcotest.test_case "interrupted composite stays consistent" `Quick
      test_interrupted_composite_is_consistent;
    Alcotest.test_case "updates through every view version" `Quick
      test_update_through_every_view_version;
    Alcotest.test_case "evolve + merge + persist + continue" `Quick
      test_evolve_then_merge_then_persist;
    Alcotest.test_case "view-local rename" `Quick test_view_class_rename_is_local;
    Alcotest.test_case "ambiguity blocked until renamed" `Quick
      test_ambiguity_must_be_renamed_to_invoke;
    Alcotest.test_case "catalog corruption detected" `Quick
      test_snapshot_corruption_detected;
    Alcotest.test_case "stored data survives promotion (regression)" `Quick
      test_stored_data_survives_promotion;
    Alcotest.test_case "deep evolution chain (15 changes)" `Quick
      test_deep_evolution_chain;
  ]
