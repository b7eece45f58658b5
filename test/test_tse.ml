(* Integration tests for the TSE system: the Section 6 translation
   algorithms, verified against the direct-modification oracle
   (Proposition A), view independence (Proposition B), updatability
   (Theorem 1), and version merging (Section 7). *)

open Tse_store
open Tse_schema
open Tse_db
open Tse_views
open Tse_core

let check = Alcotest.check
let vpp = Alcotest.testable Value.pp Value.equal

(* ------------------------------------------------------------------ *)
(* Twin fixtures: two byte-identical universities, one for the TSE
   translation, one for the destructive oracle.                        *)
(* ------------------------------------------------------------------ *)

type fixture = {
  tsem : Tsem.t;
  uni : Tse_workload.University.t;  (* TSE side *)
  oracle : Tse_workload.University.t;  (* direct side *)
}

let fixture ?(n = 24) () =
  let uni = Tse_workload.University.build () in
  ignore (Tse_workload.University.populate uni ~n);
  let oracle = Tse_workload.University.build () in
  ignore (Tse_workload.University.populate oracle ~n);
  { tsem = Tsem.of_database uni.db; uni; oracle }

let uni_view_names = [ "Person"; "Student"; "TA" ]

(* The Figure 3 view: Person, Student, TA. *)
let define_views fx names =
  let v1 = Tsem.define_view_by_names fx.tsem ~name:"VS" names in
  let graph2 = Database.graph fx.oracle.db in
  let cids2 =
    List.map (fun n -> (Schema_graph.find_by_name_exn graph2 n).Klass.cid) names
  in
  let v2 = View_schema.make ~name:"VS" ~version:0 graph2 cids2 in
  (v1, v2)

(* Proposition A: apply the change both ways, compare the views. *)
let check_prop_a ?(names = uni_view_names) change =
  let fx = fixture () in
  let _v1, v2 = define_views fx names in
  let new_view = Tsem.evolve fx.tsem ~view:"VS" change in
  let oracle_view = Direct.apply fx.oracle.db v2 change in
  let diff = Verify.diff_views (fx.uni.db, new_view) (fx.oracle.db, oracle_view) in
  check Alcotest.(list string)
    ("S'' = S' for " ^ Change.to_string change)
    [] diff;
  Alcotest.(check (list string)) "tse db consistent" [] (Database.check fx.uni.db);
  Alcotest.(check bool) "new view updatable (Theorem 1)" true
    (Verify.all_updatable fx.uni.db new_view);
  fx, new_view

(* Proposition B: another view's fingerprint must not move. *)
let check_prop_b ?(names = uni_view_names) ~other_names change =
  let fx = fixture () in
  ignore (Tsem.define_view_by_names fx.tsem ~name:"VS" names);
  ignore (Tsem.define_view_by_names fx.tsem ~name:"OTHER" other_names);
  let before = Verify.view_fingerprint fx.uni.db (Tsem.current fx.tsem "OTHER") in
  ignore (Tsem.evolve fx.tsem ~view:"VS" change);
  let after = Verify.view_fingerprint fx.uni.db (Tsem.current fx.tsem "OTHER") in
  check Alcotest.string
    ("other view untouched by " ^ Change.to_string change)
    before after

(* ------------------------------------------------------------------ *)
(* 6.1 add_attribute (Figures 3 and 7)                                  *)
(* ------------------------------------------------------------------ *)

let add_register =
  Change.Add_attribute
    { cls = "Student"; def = Change.attr "register" Value.TBool }

let test_add_attribute_prop_a () = ignore (check_prop_a add_register)

let test_add_attribute_fig7 () =
  let fx = fixture () in
  let v0 = Tsem.define_view_by_names fx.tsem ~name:"VS" uni_view_names in
  let graph = Database.graph fx.uni.db in
  let v1 = Tsem.evolve fx.tsem ~view:"VS" add_register in
  (* version bookkeeping *)
  check Alcotest.int "old version 0" 0 v0.View_schema.version;
  check Alcotest.int "new version 1" 1 v1.View_schema.version;
  (* the view still shows the classes under their original names *)
  check Alcotest.(list string) "same local names"
    [ "Person"; "Student"; "TA" ]
    (List.filter_map (View_schema.local_name v1) (View_schema.classes v1));
  (* but Student and TA are now the primed virtual classes *)
  let student' = View_schema.cid_of_exn v1 "Student" in
  let ta' = View_schema.cid_of_exn v1 "TA" in
  Alcotest.(check bool) "Student replaced" false
    (Oid.equal student' fx.uni.student);
  check Alcotest.string "global name is primed" "Student'"
    (Schema_graph.name_of graph student');
  (* register is defined on both, sharing one property identity *)
  let p1 = Option.get (Type_info.find_usable graph student' "register") in
  let p2 = Option.get (Type_info.find_usable graph ta' "register") in
  Alcotest.(check bool) "shared identity" true (Prop.same_prop p1 p2);
  (* Grad, outside the view, is untouched (Section 2.2) *)
  Alcotest.(check bool) "Grad unaffected" false
    (Type_info.has_prop graph fx.uni.grad "register");
  (* extents preserved *)
  Alcotest.(check bool) "extent preserved" true
    (Oid.Set.equal
       (Database.extent fx.uni.db student')
       (Database.extent fx.uni.db fx.uni.student));
  (* the old view still works: its Student has no register *)
  let old_student = View_schema.cid_of_exn v0 "Student" in
  Alcotest.(check bool) "old view unchanged" false
    (Type_info.has_prop graph old_student "register")

let test_add_attribute_interop () =
  (* objects are shared between old and new versions of the schema *)
  let fx = fixture ~n:0 () in
  ignore (Tsem.define_view_by_names fx.tsem ~name:"VS" uni_view_names);
  let v0 = Tsem.current fx.tsem "VS" in
  let v1 = Tsem.evolve fx.tsem ~view:"VS" add_register in
  let db = fx.uni.db in
  let student_new = View_schema.cid_of_exn v1 "Student" in
  let student_old = View_schema.cid_of_exn v0 "Student" in
  (* a program on the NEW view creates a student *)
  let o =
    Tse_update.Generic.create db student_new
      ~init:[ ("name", Value.String "amy"); ("register", Value.Bool true) ]
  in
  (* ... which an OLD program sees through its own view *)
  Alcotest.(check bool) "new object visible in old view" true
    (Oid.Set.mem o (Database.extent db student_old));
  check vpp "old view reads shared attr" (Value.String "amy")
    (Database.get_prop db o "name");
  (* an OLD program creates a student; the NEW view sees it, with the
     register attribute at its default *)
  let o2 =
    Tse_update.Generic.create db student_old ~init:[ ("name", Value.String "bob") ]
  in
  Alcotest.(check bool) "old object visible in new view" true
    (Oid.Set.mem o2 (Database.extent db student_new));
  check vpp "register defaults to null" Value.Null
    (Database.get_prop db o2 "register");
  Alcotest.(check (list string)) "consistent" [] (Database.check db)

let test_add_attribute_rejects_existing () =
  let fx = fixture () in
  ignore (Tsem.define_view_by_names fx.tsem ~name:"VS" uni_view_names);
  try
    ignore
      (Tsem.evolve fx.tsem ~view:"VS"
         (Change.Add_attribute { cls = "Student"; def = Change.attr "gpa" Value.TFloat }));
    Alcotest.fail "expected rejection"
  with Change.Rejected _ -> ()

let test_add_method_prop_a () =
  ignore
    (check_prop_a
       (Change.Add_method
          { cls = "Person"; method_name = "adult"; body = Expr.(attr "age" >= int 18) }))

(* ------------------------------------------------------------------ *)
(* 6.2 delete_attribute (Figure 8)                                      *)
(* ------------------------------------------------------------------ *)

let test_delete_attribute_prop_a () =
  ignore
    (check_prop_a (Change.Delete_attribute { cls = "Student"; attr_name = "gpa" }))

let test_delete_attribute_semantics () =
  let fx, v1 =
    check_prop_a (Change.Delete_attribute { cls = "Student"; attr_name = "gpa" })
  in
  let graph = Database.graph fx.uni.db in
  let student' = View_schema.cid_of_exn v1 "Student" in
  let ta' = View_schema.cid_of_exn v1 "TA" in
  Alcotest.(check bool) "gpa gone from Student" false
    (Type_info.has_prop graph student' "gpa");
  Alcotest.(check bool) "gpa gone from TA" false
    (Type_info.has_prop graph ta' "gpa");
  (* globally nothing was removed: the old classes still have gpa, and the
     stored data is intact *)
  Alcotest.(check bool) "global Student keeps gpa" true
    (Type_info.has_prop graph fx.uni.student "gpa")

let test_delete_attribute_restores_suppressed () =
  (* C locally overrides an inherited attribute; deleting C's local one
     restores the suppressed attribute (Section 6.2.1). *)
  let db = Database.create () in
  let g = Database.graph db in
  let o0 = Oid.of_int 0 in
  let top =
    Schema_graph.register_base g ~name:"Top"
      ~props:[ Prop.stored ~origin:o0 "x" Value.TInt ]
      ~supers:[]
  in
  let mid =
    Schema_graph.register_base g ~name:"Mid"
      ~props:[ Prop.stored ~origin:o0 "x" Value.TString ]
      ~supers:[ top ]
  in
  let leaf = Schema_graph.register_base g ~name:"Leaf" ~props:[] ~supers:[ mid ] in
  List.iter (Database.note_new_class db) [ top; mid; leaf ];
  let tsem = Tsem.of_database db in
  ignore (Tsem.define_view_by_names tsem ~name:"V" [ "Top"; "Mid"; "Leaf" ]);
  let v1 =
    Tsem.evolve tsem ~view:"V" (Change.Delete_attribute { cls = "Mid"; attr_name = "x" })
  in
  let mid' = View_schema.cid_of_exn v1 "Mid" in
  let leaf' = View_schema.cid_of_exn v1 "Leaf" in
  (* x is still there — but it is Top's x now *)
  (match Type_info.find_usable g mid' "x" with
  | Some p -> Alcotest.(check bool) "restored from Top" true (Oid.equal p.Prop.origin top)
  | None -> Alcotest.fail "suppressed x not restored at Mid");
  (match Type_info.find_usable g leaf' "x" with
  | Some p ->
    Alcotest.(check bool) "propagated to Leaf" true (Oid.equal p.Prop.origin top)
  | None -> Alcotest.fail "suppressed x not restored at Leaf");
  Alcotest.(check (list string)) "consistent" [] (Database.check db)

let test_delete_attribute_rejects_nonlocal () =
  let fx = fixture () in
  ignore (Tsem.define_view_by_names fx.tsem ~name:"VS" uni_view_names);
  (* age is defined at Person, hence not local to Student within the view *)
  try
    ignore
      (Tsem.evolve fx.tsem ~view:"VS"
         (Change.Delete_attribute { cls = "Student"; attr_name = "age" }));
    Alcotest.fail "expected rejection"
  with Change.Rejected _ -> ()

let test_delete_attribute_view_relative_local () =
  (* ... but when Person is NOT in the view, Student is the uppermost class
     showing age, so the delete is legal (Section 6.2.1's redefined
     "local"). *)
  let fx = fixture () in
  ignore (Tsem.define_view_by_names fx.tsem ~name:"VS" [ "Student"; "TA" ]);
  let v1 =
    Tsem.evolve fx.tsem ~view:"VS"
      (Change.Delete_attribute { cls = "Student"; attr_name = "age" })
  in
  let graph = Database.graph fx.uni.db in
  let student' = View_schema.cid_of_exn v1 "Student" in
  Alcotest.(check bool) "age hidden in view" false
    (Type_info.has_prop graph student' "age");
  (* other views / global schema untouched *)
  Alcotest.(check bool) "global Person keeps age" true
    (Type_info.has_prop graph fx.uni.person "age")

let test_delete_method_prop_a () =
  (* install a method first, on both twins, then delete it *)
  let fx = fixture () in
  let mk u =
    Schema_graph.add_local_prop
      (Database.graph u.Tse_workload.University.db) u.student
      (Prop.method_ ~origin:u.student "standing" Expr.(attr "gpa" >= Const (Value.Float 3.0)))
  in
  mk fx.uni;
  mk fx.oracle;
  let _v1, v2 = define_views fx uni_view_names in
  let change = Change.Delete_method { cls = "Student"; method_name = "standing" } in
  let new_view = Tsem.evolve fx.tsem ~view:"VS" change in
  let oracle_view = Direct.apply fx.oracle.db v2 change in
  check Alcotest.(list string) "S'' = S'" []
    (Verify.diff_views (fx.uni.db, new_view) (fx.oracle.db, oracle_view))

(* ------------------------------------------------------------------ *)
(* 6.5 add_edge (Figure 9)                                              *)
(* ------------------------------------------------------------------ *)

let fig9_names = [ "Person"; "Student"; "Staff"; "TeachingStaff"; "SupportStaff"; "TA"; "Grader" ]

let test_add_edge_prop_a () =
  ignore
    (check_prop_a ~names:fig9_names
       (Change.Add_edge { sup = "SupportStaff"; sub = "TA" }))

let test_add_edge_fig9 () =
  let fx, v1 =
    check_prop_a ~names:fig9_names
      (Change.Add_edge { sup = "SupportStaff"; sub = "TA" })
  in
  let db = fx.uni.db in
  let graph = Database.graph db in
  let ta' = View_schema.cid_of_exn v1 "TA" in
  let grader' = View_schema.cid_of_exn v1 "Grader" in
  let support' = View_schema.cid_of_exn v1 "SupportStaff" in
  (* TA and Grader inherit boss *)
  Alcotest.(check bool) "TA inherits boss" true (Type_info.has_prop graph ta' "boss");
  Alcotest.(check bool) "Grader inherits boss" true
    (Type_info.has_prop graph grader' "boss");
  (* the extent of SupportStaff is expanded by TA's extent *)
  Alcotest.(check bool) "TA extent flowed into SupportStaff" true
    (Oid.Set.subset (Database.extent db fx.uni.ta) (Database.extent db support'));
  (* the old SupportStaff did not change *)
  Alcotest.(check bool) "old SupportStaff extent unchanged" false
    (Oid.Set.subset
       (Database.extent db fx.uni.ta)
       (Database.extent db fx.uni.support_staff));
  (* the view hierarchy has the new edge *)
  let edges = Generation.edges graph v1 in
  Alcotest.(check bool) "view edge SupportStaff-TA" true
    (List.exists (fun (s, b) -> Oid.equal s support' && Oid.equal b ta') edges)

let test_add_edge_boss_storage () =
  (* after add_edge, a TA object can actually store a boss value *)
  let fx = fixture ~n:0 () in
  ignore (Tsem.define_view_by_names fx.tsem ~name:"VS" fig9_names);
  let v1 =
    Tsem.evolve fx.tsem ~view:"VS" (Change.Add_edge { sup = "SupportStaff"; sub = "TA" })
  in
  let db = fx.uni.db in
  let ta' = View_schema.cid_of_exn v1 "TA" in
  let o = Tse_update.Generic.create db ta' ~init:[ ("boss", Value.String "dean") ] in
  check vpp "boss stored" (Value.String "dean") (Database.get_prop db o "boss");
  Alcotest.(check (list string)) "consistent" [] (Database.check db)

(* ------------------------------------------------------------------ *)
(* 6.6 delete_edge (Figures 10 and 11)                                  *)
(* ------------------------------------------------------------------ *)

let test_delete_edge_prop_a () =
  ignore
    (check_prop_a ~names:fig9_names
       (Change.Delete_edge { sup = "TeachingStaff"; sub = "TA"; connected_to = None }))

let test_delete_edge_fig10 () =
  let fx, v1 =
    check_prop_a ~names:fig9_names
      (Change.Delete_edge { sup = "TeachingStaff"; sub = "TA"; connected_to = None })
  in
  let db = fx.uni.db in
  let graph = Database.graph db in
  let ta' = View_schema.cid_of_exn v1 "TA" in
  let teaching' = View_schema.cid_of_exn v1 "TeachingStaff" in
  (* lecture no longer inherited into TA *)
  Alcotest.(check bool) "lecture gone from TA" false
    (Type_info.has_prop graph ta' "lecture");
  (* hours (TA's own) still there *)
  Alcotest.(check bool) "hours kept" true (Type_info.has_prop graph ta' "hours");
  (* TeachingStaff's extent no longer contains the TAs *)
  Alcotest.(check bool) "TA extent hidden from TeachingStaff" true
    (Oid.Set.is_empty
       (Oid.Set.inter
          (Database.extent db fx.uni.ta)
          (Database.extent db teaching')));
  (* the view hierarchy lost the edge *)
  let edges = Generation.edges graph v1 in
  Alcotest.(check bool) "no TeachingStaff-TA edge" false
    (List.exists (fun (s, b) -> Oid.equal s teaching' && Oid.equal b ta') edges)

let test_common_sub_fig11 () =
  (* the diamond of Figure 11: deleting Csup-Csub must not remove from v
     the instances still visible through C1..C3 *)
  let db = Database.create () in
  let g = Database.graph db in
  let reg name supers =
    let c = Schema_graph.register_base g ~name ~props:[] ~supers in
    Database.note_new_class db c;
    c
  in
  let v = reg "V" [] in
  let csup = reg "Csup" [ v ] in
  let csub = reg "Csub" [ csup ] in
  let c1 = reg "C1" [ v; csub ] in
  let c2 = reg "C2" [ v; csub ] in
  let c3 = reg "C3" [ v; csub ] in
  let commons = Macros.common_sub db ~v ~sub:csub ~sup:csup ~sub':csub in
  check
    Alcotest.(list string)
    "commonSub returns C1 C2 C3"
    [ "C1"; "C2"; "C3" ]
    (List.sort String.compare (List.map (Schema_graph.name_of g) commons));
  (* end-to-end: instances of C1..C3 stay visible in V after the change *)
  let o1 = Database.create_object db c1 ~init:[] in
  let o2 = Database.create_object db c2 ~init:[] in
  let o3 = Database.create_object db c3 ~init:[] in
  let osub = Database.create_object db csub ~init:[] in
  let tsem = Tsem.of_database db in
  ignore
    (Tsem.define_view_by_names tsem ~name:"W"
       [ "V"; "Csup"; "Csub"; "C1"; "C2"; "C3" ]);
  let v1 =
    Tsem.evolve tsem ~view:"W"
      (Change.Delete_edge { sup = "Csup"; sub = "Csub"; connected_to = None })
  in
  let vnew = View_schema.cid_of_exn v1 "V" in
  let csup_new = View_schema.cid_of_exn v1 "Csup" in
  List.iter
    (fun o ->
      Alcotest.(check bool) "still visible in V" true
        (Oid.Set.mem o (Database.extent db vnew)))
    [ o1; o2; o3 ];
  Alcotest.(check bool) "pure Csub instance hidden from Csup" false
    (Oid.Set.mem osub (Database.extent db csup_new));
  (* C1 reaches Csup only through the deleted edge, so it leaves Csup too *)
  Alcotest.(check bool) "C1 instance left Csup as well" false
    (Oid.Set.mem o1 (Database.extent db csup_new));
  Alcotest.(check (list string)) "consistent" [] (Database.check db)

let test_delete_edge_connected_to () =
  let fx, v1 =
    check_prop_a ~names:fig9_names
      (Change.Delete_edge
         { sup = "TeachingStaff"; sub = "TA"; connected_to = Some "Person" })
  in
  ignore fx;
  ignore v1

(* ------------------------------------------------------------------ *)
(* 6.7 add_class (Figure 12), 6.9 insert_class / delete_class_2         *)
(* ------------------------------------------------------------------ *)

let test_add_class_base_anchor_prop_a () =
  ignore
    (check_prop_a (Change.Add_class { cls = "Freshman"; connected_to = Some "Student" }))

let test_add_class_fig12_virtual_anchor () =
  (* HonorStudent is a select virtual class; the new class must end up its
     subclass, empty, and correctly entangled with the predicate *)
  let fx = fixture ~n:0 () in
  let db = fx.uni.db in
  let honor =
    Tse_algebra.Ops.select db ~name:"HonorStudent" ~src:fx.uni.student
      Expr.(attr "gpa" >= Const (Value.Float 3.5))
  in
  ignore honor;
  ignore
    (Tsem.define_view_by_names fx.tsem ~name:"VS"
       [ "Person"; "Student"; "HonorStudent" ]);
  let v1 =
    Tsem.evolve fx.tsem ~view:"VS"
      (Change.Add_class { cls = "HonorParttime"; connected_to = Some "HonorStudent" })
  in
  let graph = Database.graph db in
  let cadd = View_schema.cid_of_exn v1 "HonorParttime" in
  Alcotest.(check bool) "subclass of HonorStudent" true
    (Schema_graph.is_strict_ancestor graph ~anc:honor ~desc:cadd);
  check Alcotest.int "initially empty (Figure 13 (e))" 0
    (Database.extent_size db cadd);
  (* creating through the new class: the object appears in HonorStudent
     and Student too — but only if it satisfies the select predicate *)
  let o =
    Tse_update.Generic.create db cadd
      ~init:[ ("name", Value.String "zoe"); ("gpa", Value.Float 3.9) ]
  in
  Alcotest.(check bool) "visible in HonorStudent" true
    (Oid.Set.mem o (Database.extent db honor));
  Alcotest.(check bool) "visible in Student" true
    (Oid.Set.mem o (Database.extent db fx.uni.student));
  (try
     ignore
       (Tse_update.Generic.create db cadd
          ~init:[ ("name", Value.String "lou"); ("gpa", Value.Float 2.0) ]);
     Alcotest.fail "expected value-closure rejection"
   with Tse_update.Generic.Rejected _ -> ());
  Alcotest.(check (list string)) "consistent" [] (Database.check db)

(* add_class replays the anchor's derivation DAG onto the fresh origin
   subclass. Here every level derives twice from the level above,
   X(i+1) = X(i) & S(i) with S(i) = select from X(i), so the DAG has
   2 * depth virtual classes while its unfolding as a tree has over
   2^depth. A replay that visits each shared source once registers one
   class per DAG node, plus the origin's substitute. *)
let test_add_class_replays_shared_sources_once () =
  let fx = fixture ~n:4 () in
  let db = fx.uni.db in
  let graph = Database.graph db in
  let depth = 8 in
  let rec level i x =
    if i = depth then x
    else
      let s =
        Tse_algebra.Ops.select db ~name:(Printf.sprintf "S%d" i) ~src:x
          Expr.(attr "age" >= int i)
      in
      level (i + 1)
        (Tse_algebra.Ops.intersect db ~name:(Printf.sprintf "X%d" (i + 1)) x s)
  in
  let top = level 0 fx.uni.student in
  let anchor = Schema_graph.name_of graph top in
  ignore (Tsem.define_view_by_names fx.tsem ~name:"VD" [ "Person"; anchor ]);
  let gen = Schema_graph.gen graph in
  let drawn0 = Oid.Gen.count gen and size0 = Schema_graph.size graph in
  let v1 =
    Tsem.evolve fx.tsem ~view:"VD"
      (Change.Add_class { cls = "Deep"; connected_to = Some anchor })
  in
  let dag = 2 * depth in
  check Alcotest.int "classes registered: one per DAG node and the substitute"
    (dag + 1)
    (Oid.Gen.count gen - drawn0);
  check Alcotest.int "classes kept" (dag + 1) (Schema_graph.size graph - size0);
  let cadd = View_schema.cid_of_exn v1 "Deep" in
  Alcotest.(check bool) "subclass of the anchor" true
    (Schema_graph.is_strict_ancestor graph ~anc:top ~desc:cadd);
  Alcotest.(check (list string)) "consistent" [] (Database.check db)

let test_insert_class_fig14 () =
  let fx, v1 =
    check_prop_a
      (Change.Insert_class { cls = "Middle"; sup = "Person"; sub = "Student" })
  in
  let graph = Database.graph fx.uni.db in
  let middle = View_schema.cid_of_exn v1 "Middle" in
  let person = View_schema.cid_of_exn v1 "Person" in
  let student = View_schema.cid_of_exn v1 "Student" in
  Alcotest.(check bool) "Middle below Person" true
    (Schema_graph.is_strict_ancestor graph ~anc:person ~desc:middle);
  Alcotest.(check bool) "Student below Middle" true
    (Schema_graph.is_strict_ancestor graph ~anc:middle ~desc:student);
  (* Middle's global extent covers the students (Section 6.9.1) *)
  Alcotest.(check bool) "students visible in Middle" true
    (Oid.Set.subset
       (Database.extent fx.uni.db student)
       (Database.extent fx.uni.db middle))

let test_delete_class_removes_from_view_only () =
  let fx, v1 = check_prop_a (Change.Delete_class { cls = "TA" }) in
  Alcotest.(check bool) "TA gone from view" true
    (View_schema.cid_of v1 "TA" = None);
  (* the class and its objects are globally intact *)
  Alcotest.(check bool) "TA alive globally" true
    (Schema_graph.mem (Database.graph fx.uni.db) fx.uni.ta);
  Alcotest.(check bool) "TA extent intact" false
    (Oid.Set.is_empty (Database.extent fx.uni.db fx.uni.ta))

let test_delete_class_2_fig15 () =
  let fx, v1 =
    check_prop_a ~names:[ "Person"; "Student"; "TA"; "Grad" ]
      (Change.Delete_class_2 { cls = "Student" })
  in
  let graph = Database.graph fx.uni.db in
  (* Student is gone; Grad and TA are re-attached under Person in the view *)
  Alcotest.(check bool) "Student gone" true (View_schema.cid_of v1 "Student" = None);
  let person = View_schema.cid_of_exn v1 "Person" in
  let grad = View_schema.cid_of_exn v1 "Grad" in
  let ta = View_schema.cid_of_exn v1 "TA" in
  let edges = Generation.edges graph v1 in
  Alcotest.(check bool) "Person-Grad edge" true
    (List.exists (fun (s, b) -> Oid.equal s person && Oid.equal b grad) edges);
  Alcotest.(check bool) "Person-TA edge" true
    (List.exists (fun (s, b) -> Oid.equal s person && Oid.equal b ta) edges);
  (* Student's local property is no longer inherited *)
  Alcotest.(check bool) "gpa gone from Grad" false
    (Type_info.has_prop graph grad "gpa");
  (* but Grad's own property survives *)
  Alcotest.(check bool) "thesis kept" true (Type_info.has_prop graph grad "thesis")

(* ------------------------------------------------------------------ *)
(* Proposition B across all operators                                   *)
(* ------------------------------------------------------------------ *)

let test_prop_b_all_operators () =
  let other = [ "Person"; "Student"; "Grad"; "TeachingStaff"; "TA" ] in
  List.iter
    (fun change -> check_prop_b ~names:fig9_names ~other_names:other change)
    [
      add_register;
      Change.Delete_attribute { cls = "Student"; attr_name = "gpa" };
      Change.Add_method
        { cls = "Person"; method_name = "adult"; body = Expr.(attr "age" >= int 18) };
      Change.Add_edge { sup = "SupportStaff"; sub = "TA" };
      Change.Delete_edge { sup = "TeachingStaff"; sub = "TA"; connected_to = None };
      Change.Add_class { cls = "Freshman"; connected_to = Some "Student" };
      Change.Delete_class { cls = "Grader" };
      Change.Insert_class { cls = "Middle"; sup = "Person"; sub = "Student" };
    ]

(* the contrast: the direct oracle DOES break other views *)
let test_direct_breaks_other_views () =
  let fx = fixture () in
  let _v1, v2 = define_views fx uni_view_names in
  ignore v2;
  let other =
    View_schema.make ~name:"OTHER" ~version:0 (Database.graph fx.oracle.db)
      [ fx.oracle.person; fx.oracle.student; fx.oracle.grad ]
  in
  let before = Verify.view_fingerprint fx.oracle.db other in
  let oracle_view =
    View_schema.make ~name:"VS" ~version:0 (Database.graph fx.oracle.db)
      [ fx.oracle.person; fx.oracle.student; fx.oracle.ta ]
  in
  ignore (Direct.apply fx.oracle.db oracle_view add_register);
  let after = Verify.view_fingerprint fx.oracle.db other in
  Alcotest.(check bool) "direct modification leaks into other views" false
    (String.equal before after)

(* ------------------------------------------------------------------ *)
(* Section 7: version merging (Figure 16)                               *)
(* ------------------------------------------------------------------ *)

let test_merge_fig16 () =
  let fx = fixture ~n:12 () in
  ignore (Tsem.define_view_by_names fx.tsem ~name:"U1" uni_view_names);
  ignore (Tsem.define_view_by_names fx.tsem ~name:"U2" uni_view_names);
  (* user 1 adds register; user 2 adds student_id *)
  ignore (Tsem.evolve fx.tsem ~view:"U1" add_register);
  ignore
    (Tsem.evolve fx.tsem ~view:"U2"
       (Change.Add_attribute { cls = "Student"; def = Change.attr "student_id" Value.TInt }));
  let merged = Merge.merge_current fx.tsem ~view1:"U1" ~view2:"U2" ~new_name:"U3" in
  let graph = Database.graph fx.uni.db in
  (* Person is the same global class in both: appears once *)
  let persons =
    List.filter
      (fun cid -> String.equal (Schema_graph.name_of graph cid) "Person")
      (View_schema.classes merged)
  in
  check Alcotest.int "one Person" 1 (List.length persons);
  (* the two Students are genuinely different classes: both kept, renamed *)
  let student_names =
    List.filter_map (View_schema.local_name merged) (View_schema.classes merged)
    |> List.filter (fun n -> String.length n >= 7 && String.sub n 0 7 = "Student")
    |> List.sort String.compare
  in
  check Alcotest.int "two Students, disambiguated" 2 (List.length student_names);
  Alcotest.(check bool) "suffixed names" true
    (List.for_all (fun n -> String.length n > String.length "Student") student_names);
  (* both carry their own new attribute; objects are shared underneath *)
  let s1 = View_schema.cid_of_exn (Tsem.current fx.tsem "U1") "Student" in
  let s2 = View_schema.cid_of_exn (Tsem.current fx.tsem "U2") "Student" in
  Alcotest.(check bool) "register on U1's Student" true
    (Type_info.has_prop graph s1 "register");
  Alcotest.(check bool) "student_id on U2's Student" true
    (Type_info.has_prop graph s2 "student_id");
  Alcotest.(check bool) "same extent (shared objects)" true
    (Oid.Set.equal (Database.extent fx.uni.db s1) (Database.extent fx.uni.db s2))

let test_merge_no_duplicate_attribute_storage () =
  (* adding the SAME attribute in two views converges to one class thanks
     to duplicate detection (Section 7: no duplicate classes) *)
  let fx = fixture ~n:6 () in
  ignore (Tsem.define_view_by_names fx.tsem ~name:"U1" uni_view_names);
  ignore (Tsem.define_view_by_names fx.tsem ~name:"U2" uni_view_names);
  ignore (Tsem.evolve fx.tsem ~view:"U1" add_register);
  ignore (Tsem.evolve fx.tsem ~view:"U2" add_register);
  let s1 = View_schema.cid_of_exn (Tsem.current fx.tsem "U1") "Student" in
  let s2 = View_schema.cid_of_exn (Tsem.current fx.tsem "U2") "Student" in
  Alcotest.(check bool)
    "the two evolutions share one refine class (no wasted storage)" true
    (Oid.equal s1 s2)

(* ------------------------------------------------------------------ *)
(* Sequences of changes                                                 *)
(* ------------------------------------------------------------------ *)

let test_change_sequence () =
  let fx = fixture () in
  ignore (Tsem.define_view_by_names fx.tsem ~name:"VS" fig9_names);
  let final =
    Tsem.evolve_many fx.tsem ~view:"VS"
      [
        add_register;
        Change.Add_method
          { cls = "Person"; method_name = "adult"; body = Expr.(attr "age" >= int 18) };
        Change.Add_edge { sup = "SupportStaff"; sub = "TA" };
        Change.Delete_attribute { cls = "Student"; attr_name = "major" };
        Change.Add_class { cls = "Freshman"; connected_to = Some "Student" };
      ]
  in
  check Alcotest.int "five versions on top of v0" 5 final.View_schema.version;
  let graph = Database.graph fx.uni.db in
  let student = View_schema.cid_of_exn final "Student" in
  Alcotest.(check bool) "register present" true
    (Type_info.has_prop graph student "register");
  Alcotest.(check bool) "major gone" false (Type_info.has_prop graph student "major");
  Alcotest.(check bool) "adult present" true (Type_info.has_prop graph student "adult");
  (* every historical version remains registered and intact *)
  check Alcotest.int "history depth" 6
    (List.length (Tse_views.History.versions (Tsem.history fx.tsem) "VS"));
  Alcotest.(check (list string)) "consistent" [] (Database.check fx.uni.db);
  Alcotest.(check bool) "updatable" true (Verify.all_updatable fx.uni.db final)

let test_rename_class () =
  let fx, v1 =
    check_prop_a (Change.Rename_class { old_name = "TA"; new_name = "Assistant" })
  in
  let graph = Database.graph fx.uni.db in
  (* purely view-local: the global class keeps its name *)
  check Alcotest.string "global name intact" "TA"
    (Schema_graph.name_of graph (View_schema.cid_of_exn v1 "Assistant"));
  Alcotest.(check bool) "old local name gone" true
    (View_schema.cid_of v1 "TA" = None);
  (* subsequent changes address the new name *)
  let v2 =
    Tsem.evolve fx.tsem ~view:"VS"
      (Change.Add_attribute { cls = "Assistant"; def = Change.attr "badge" Value.TInt })
  in
  Alcotest.(check bool) "evolvable under new name" true
    (Type_info.has_prop graph (View_schema.cid_of_exn v2 "Assistant") "badge");
  (* renaming onto a taken name is rejected *)
  try
    ignore
      (Tsem.evolve fx.tsem ~view:"VS"
         (Change.Rename_class { old_name = "Assistant"; new_name = "Person" }));
    Alcotest.fail "expected rejection"
  with Change.Rejected _ -> ()

let suite =
  [
    Alcotest.test_case "rename_class: view-local, Prop A" `Quick
      test_rename_class;
    Alcotest.test_case "add_attribute: Proposition A" `Quick
      test_add_attribute_prop_a;
    Alcotest.test_case "add_attribute: Figure 7 pipeline" `Quick
      test_add_attribute_fig7;
    Alcotest.test_case "add_attribute: old/new program interop" `Quick
      test_add_attribute_interop;
    Alcotest.test_case "add_attribute: rejects existing name" `Quick
      test_add_attribute_rejects_existing;
    Alcotest.test_case "add_method: Proposition A" `Quick test_add_method_prop_a;
    Alcotest.test_case "delete_attribute: Proposition A" `Quick
      test_delete_attribute_prop_a;
    Alcotest.test_case "delete_attribute: semantics (Fig 8)" `Quick
      test_delete_attribute_semantics;
    Alcotest.test_case "delete_attribute: restores suppressed" `Quick
      test_delete_attribute_restores_suppressed;
    Alcotest.test_case "delete_attribute: rejects non-local" `Quick
      test_delete_attribute_rejects_nonlocal;
    Alcotest.test_case "delete_attribute: view-relative local" `Quick
      test_delete_attribute_view_relative_local;
    Alcotest.test_case "delete_method: Proposition A" `Quick
      test_delete_method_prop_a;
    Alcotest.test_case "add_edge: Proposition A" `Quick test_add_edge_prop_a;
    Alcotest.test_case "add_edge: Figure 9 semantics" `Quick test_add_edge_fig9;
    Alcotest.test_case "add_edge: new attributes storable" `Quick
      test_add_edge_boss_storage;
    Alcotest.test_case "delete_edge: Proposition A" `Quick test_delete_edge_prop_a;
    Alcotest.test_case "delete_edge: Figure 10 semantics" `Quick
      test_delete_edge_fig10;
    Alcotest.test_case "delete_edge: commonSub diamond (Fig 11)" `Quick
      test_common_sub_fig11;
    Alcotest.test_case "delete_edge: connected_to" `Quick
      test_delete_edge_connected_to;
    Alcotest.test_case "add_class: Proposition A (base anchor)" `Quick
      test_add_class_base_anchor_prop_a;
    Alcotest.test_case "add_class: virtual anchor (Fig 12/13)" `Quick
      test_add_class_fig12_virtual_anchor;
    Alcotest.test_case "add_class: shared sources replayed once" `Quick
      test_add_class_replays_shared_sources_once;
    Alcotest.test_case "insert_class: Figure 14" `Quick test_insert_class_fig14;
    Alcotest.test_case "delete_class: view-only removal" `Quick
      test_delete_class_removes_from_view_only;
    Alcotest.test_case "delete_class_2: Figure 15" `Quick test_delete_class_2_fig15;
    Alcotest.test_case "Proposition B: all operators" `Quick
      test_prop_b_all_operators;
    Alcotest.test_case "direct modification breaks other views" `Quick
      test_direct_breaks_other_views;
    Alcotest.test_case "merge: Figure 16" `Quick test_merge_fig16;
    Alcotest.test_case "merge: duplicate change converges" `Quick
      test_merge_no_duplicate_attribute_storage;
    Alcotest.test_case "sequence of five changes" `Quick test_change_sequence;
  ]
