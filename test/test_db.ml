(* Tests for the database kernel: object lifecycle, extents, property
   access, derived membership. *)

open Tse_store
open Tse_schema
open Tse_db

let check = Alcotest.check
let vpp = Alcotest.testable Value.pp Value.equal
let uni () = Tse_workload.University.build ()

let test_create_and_extents () =
  let u = uni () in
  let db = u.db in
  let ta =
    Database.create_object db u.ta
      ~init:[ ("name", Value.String "kim"); ("hours", Value.Int 10) ]
  in
  (* a TA is in the extents of TA, Student, TeachingStaff, Staff, Person *)
  List.iter
    (fun (label, cid) ->
      Alcotest.(check bool) label true (Oid.Set.mem ta (Database.extent db cid)))
    [
      ("in TA", u.ta);
      ("in Student", u.student);
      ("in TeachingStaff", u.teaching_staff);
      ("in Staff", u.staff);
      ("in Person", u.person);
    ];
  Alcotest.(check bool) "not in Grad" false
    (Oid.Set.mem ta (Database.extent db u.grad));
  Alcotest.(check (list string)) "consistent" [] (Database.check db)

let test_property_access () =
  let u = uni () in
  let db = u.db in
  let s =
    Database.create_object db u.student
      ~init:
        [ ("name", Value.String "ann"); ("age", Value.Int 25);
          ("gpa", Value.Float 3.9) ]
  in
  check vpp "inherited attr" (Value.String "ann") (Database.get_prop db s "name");
  check vpp "local attr" (Value.Float 3.9) (Database.get_prop db s "gpa");
  Database.set_attr db s "age" (Value.Int 26);
  check vpp "updated" (Value.Int 26) (Database.get_prop db s "age");
  Alcotest.check_raises "unknown prop" (Expr.Unknown_property "salary")
    (fun () -> ignore (Database.get_prop db s "salary"));
  (try
     Database.set_attr db s "age" (Value.String "old");
     Alcotest.fail "expected type error"
   with Expr.Type_error _ -> ())

let test_method_evaluation () =
  let u = uni () in
  let db = u.db in
  (* add a derived method adult() = age >= 18 to Person *)
  Schema_graph.add_local_prop (Database.graph db) u.person
    (Prop.method_ ~origin:u.person "adult" Expr.(attr "age" >= int 18));
  let p =
    Database.create_object db u.person
      ~init:[ ("name", Value.String "bo"); ("age", Value.Int 12) ]
  in
  check vpp "method false" (Value.Bool false) (Database.get_prop db p "adult");
  Database.set_attr db p "age" (Value.Int 30);
  check vpp "method true" (Value.Bool true) (Database.get_prop db p "adult");
  (* methods are not settable *)
  (try
     Database.set_attr db p "adult" (Value.Bool true);
     Alcotest.fail "expected type error"
   with Expr.Type_error _ -> ())

let test_base_membership_changes () =
  let u = uni () in
  let db = u.db in
  let p = Database.create_object db u.person ~init:[ ("age", Value.Int 20) ] in
  Alcotest.(check bool) "not student" false (Database.is_member db p u.student);
  Database.add_base_membership db p u.student;
  Alcotest.(check bool) "now student" true (Database.is_member db p u.student);
  Alcotest.(check bool) "still person" true (Database.is_member db p u.person);
  Database.set_attr db p "gpa" (Value.Float 3.0);
  check vpp "student attr now usable" (Value.Float 3.0)
    (Database.get_prop db p "gpa");
  Database.remove_base_membership db p u.student;
  Alcotest.(check bool) "student dropped" false (Database.is_member db p u.student);
  Alcotest.(check bool) "person kept" true (Database.is_member db p u.person);
  Alcotest.(check (list string)) "consistent" [] (Database.check db)

let test_membership_closure_on_add () =
  let u = uni () in
  let db = u.db in
  let p = Database.create_object db u.person ~init:[] in
  (* adding to TA pulls in Student, TeachingStaff and Staff *)
  Database.add_base_membership db p u.ta;
  List.iter
    (fun cid ->
      Alcotest.(check bool)
        (Printf.sprintf "member of %s"
           (Schema_graph.name_of (Database.graph db) cid))
        true (Database.is_member db p cid))
    [ u.ta; u.student; u.teaching_staff; u.staff; u.person ];
  (* removing Student also removes TA (its descendant) but keeps Staff *)
  Database.remove_base_membership db p u.student;
  Alcotest.(check bool) "TA dropped" false (Database.is_member db p u.ta);
  Alcotest.(check bool) "Staff kept" true (Database.is_member db p u.staff);
  Alcotest.(check (list string)) "consistent" [] (Database.check db)

let test_select_class_membership () =
  let u = uni () in
  let db = u.db in
  let g = Database.graph db in
  (* a virtual select class: Adult = select from Person where age >= 18,
     linked under Person as the classifier would *)
  let adult =
    Schema_graph.register_virtual g ~name:"Adult"
      (Klass.Select (u.person, Expr.(attr "age" >= int 18)))
      []
  in
  Schema_graph.add_edge g ~sup:u.person ~sub:adult;
  Database.note_new_class db adult;
  let young = Database.create_object db u.person ~init:[ ("age", Value.Int 10) ] in
  let old = Database.create_object db u.person ~init:[ ("age", Value.Int 40) ] in
  Alcotest.(check bool) "young not adult" false (Database.is_member db young adult);
  Alcotest.(check bool) "old adult" true (Database.is_member db old adult);
  check Alcotest.int "extent size" 1 (Database.extent_size db adult);
  (* updating the attribute reclassifies *)
  Database.set_attr db young "age" (Value.Int 19);
  Alcotest.(check bool) "young grew up" true (Database.is_member db young adult);
  Database.set_attr db old "age" (Value.Int 5);
  Alcotest.(check bool) "old un-classified" false (Database.is_member db old adult);
  Alcotest.(check (list string)) "consistent" [] (Database.check db)

let test_refine_class_membership () =
  let u = uni () in
  let db = u.db in
  let g = Database.graph db in
  (* capacity-augmenting refine: Student' = refine register for Student *)
  let register = Prop.stored ~origin:(Oid.of_int 0) "register" Value.TBool in
  let student' =
    Schema_graph.register_virtual g ~name:"Student'"
      (Klass.Refine ([ register ], u.student))
      [ register ]
  in
  Schema_graph.add_edge g ~sup:u.student ~sub:student';
  Database.note_new_class db student';
  let s = Database.create_object db u.student ~init:[ ("age", Value.Int 20) ] in
  (* every Student is automatically a member of the refine class *)
  Alcotest.(check bool) "student in Student'" true
    (Database.is_member db s student');
  (* ... and can store the new attribute in its new slice *)
  Database.set_attr db s "register" (Value.Bool true);
  check vpp "register readable" (Value.Bool true)
    (Database.get_prop db s "register");
  Alcotest.(check (list string)) "consistent" [] (Database.check db)

let test_set_ops_membership () =
  let u = uni () in
  let db = u.db in
  let g = Database.graph db in
  let mk name d =
    let cid = Schema_graph.register_virtual g ~name d [] in
    Database.note_new_class db cid;
    cid
  in
  let union = mk "StudentsOrStaff" (Klass.Union (u.student, u.staff)) in
  Schema_graph.add_edge g ~sup:u.person ~sub:union;
  let inter = mk "StudentStaff" (Klass.Intersect (u.student, u.staff)) in
  Schema_graph.add_edge g ~sup:u.student ~sub:inter;
  Schema_graph.add_edge g ~sup:u.staff ~sub:inter;
  let diff = mk "NonStaffStudent" (Klass.Difference (u.student, u.staff)) in
  Schema_graph.add_edge g ~sup:u.student ~sub:diff;
  let pure_student = Database.create_object db u.student ~init:[] in
  let ta = Database.create_object db u.ta ~init:[] in
  let staff_only = Database.create_object db u.support_staff ~init:[] in
  let person = Database.create_object db u.person ~init:[] in
  let mem o c = Database.is_member db o c in
  Alcotest.(check bool) "student in union" true (mem pure_student union);
  Alcotest.(check bool) "staff in union" true (mem staff_only union);
  Alcotest.(check bool) "person not in union" false (mem person union);
  Alcotest.(check bool) "ta in intersect" true (mem ta inter);
  Alcotest.(check bool) "pure student not in intersect" false (mem pure_student inter);
  Alcotest.(check bool) "pure student in difference" true (mem pure_student diff);
  Alcotest.(check bool) "ta not in difference" false (mem ta diff);
  Alcotest.(check (list string)) "consistent" [] (Database.check db)

let test_derived_on_derived () =
  let u = uni () in
  let db = u.db in
  let g = Database.graph db in
  (* select on top of a capacity-augmenting refine: the predicate reads the
     refined attribute, which only exists on the refine slice *)
  let credits = Prop.stored ~origin:(Oid.of_int 0) "credits" Value.TInt ~default:(Value.Int 0) in
  let student' =
    Schema_graph.register_virtual g ~name:"Student'"
      (Klass.Refine ([ credits ], u.student))
      [ credits ]
  in
  Schema_graph.add_edge g ~sup:u.student ~sub:student';
  Database.note_new_class db student';
  let heavy =
    Schema_graph.register_virtual g ~name:"HeavyLoad"
      (Klass.Select (student', Expr.(attr "credits" >= int 12)))
      []
  in
  Schema_graph.add_edge g ~sup:student' ~sub:heavy;
  Database.note_new_class db heavy;
  let s = Database.create_object db u.student ~init:[] in
  Alcotest.(check bool) "default 0 credits: not heavy" false
    (Database.is_member db s heavy);
  Database.set_attr db s "credits" (Value.Int 15);
  Alcotest.(check bool) "now heavy" true (Database.is_member db s heavy);
  Alcotest.(check (list string)) "consistent" [] (Database.check db)

let test_destroy_object () =
  let u = uni () in
  let db = u.db in
  let s = Database.create_object db u.student ~init:[] in
  Database.destroy_object db s;
  Alcotest.(check bool) "gone" false (Database.mem_object db s);
  check Alcotest.int "extent empty" 0 (Database.extent_size db u.student);
  Alcotest.(check (list string)) "consistent" [] (Database.check db)

let test_populate_consistency () =
  let u = uni () in
  let objs = Tse_workload.University.populate u ~n:60 in
  check Alcotest.int "created 60" 60 (List.length objs);
  check Alcotest.int "population count" 60 (Database.object_count u.db);
  (* every sixth object lands in each class bucket *)
  check Alcotest.int "persons include everyone" 60
    (Database.extent_size u.db u.person);
  check Alcotest.int "graders" 10 (Database.extent_size u.db u.grader);
  Alcotest.(check (list string)) "consistent" [] (Database.check u.db)

(* --- incremental reclassification engine ---------------------------- *)

let test_zero_eval_on_untouched_attr () =
  let u = uni () in
  let db = u.db in
  (* the contract under test is the incremental engine's, whatever
     DB_FULL_RECLASSIFY says for the rest of the suite *)
  Database.set_full_reclassify db false;
  let senior =
    Tse_algebra.Ops.select db ~name:"Senior" ~src:u.person
      Expr.(attr "age" >= int 65)
  in
  let p =
    Database.create_object db u.person
      ~init:[ ("age", Value.Int 70); ("name", Value.String "pat") ]
  in
  Alcotest.(check bool) "senior" true (Database.is_member db p senior);
  let n0 = Database.formula_eval_count db in
  (* no select predicate reads name or ssn: the writes must short-circuit
     before any formula evaluation *)
  Database.set_attr db p "name" (Value.String "chris");
  Database.set_attr db p "ssn" (Value.Int 7);
  check Alcotest.int "zero evaluations" n0 (Database.formula_eval_count db);
  Database.set_attr db p "age" (Value.Int 30);
  Alcotest.(check bool) "left Senior" false (Database.is_member db p senior);
  Alcotest.(check bool) "age write evaluated the predicate" true
    (Database.formula_eval_count db > n0);
  Alcotest.(check (list string)) "consistent" [] (Database.check db)

let test_nonconvergence_hook () =
  let u = uni () in
  let db = u.db in
  let g = Database.graph db in
  Alcotest.(check bool) "fuel is positive" true (Database.reclassify_fuel > 0);
  let fired = ref 0 in
  Database.set_nonconvergence_hook db (fun _ -> incr fired);
  (* a self-negating derivation: V = select Person where not member_of V.
     Built below the algebra because Ops rejects the forward reference. *)
  let v =
    Schema_graph.register_virtual g ~name:"Oscillator"
      (Klass.Select (u.person, Expr.Not (Expr.In_class "Oscillator")))
      []
  in
  Schema_graph.add_edge g ~sup:u.person ~sub:v;
  Database.note_new_class db v;
  ignore (Database.create_object db u.person ~init:[]);
  check Alcotest.int "hook fired" 1 !fired;
  ignore (Database.create_object db u.person ~init:[]);
  check Alcotest.int "hook is one-shot" 1 !fired

let test_create_event_order () =
  let u = uni () in
  let db = u.db in
  let log = ref [] in
  Database.add_listener db (fun ev -> log := ev :: !log);
  let o =
    Database.create_object db u.person
      ~init:[ ("name", Value.String "n"); ("age", Value.Int 3) ]
  in
  let events = List.rev !log in
  (match events with
  | Database.Object_created o' :: _ ->
    Alcotest.(check bool) "creation announced first" true (Oid.equal o o')
  | _ -> Alcotest.fail "first event was not Object_created");
  (* no listener may see a write to an object it has not been told exists *)
  let created = ref false in
  List.iter
    (fun ev ->
      match ev with
      | Database.Object_created _ -> created := true
      | Database.Attr_set _ ->
        Alcotest.(check bool) "Attr_set after Object_created" true !created
      | _ -> ())
    events;
  Alcotest.(check bool) "init writes were observed" true
    (List.exists
       (function Database.Attr_set _ -> true | _ -> false)
       events)

let test_membership_delta_events () =
  let u = uni () in
  let db = u.db in
  let senior =
    Tse_algebra.Ops.select db ~name:"Senior" ~src:u.person
      Expr.(attr "age" >= int 65)
  in
  let deltas = ref [] in
  Database.add_listener db (fun ev ->
      match ev with
      | Database.Membership_delta (o, a, r) -> deltas := (o, a, r) :: !deltas
      | _ -> ());
  let p = Database.create_object db u.person ~init:[ ("age", Value.Int 30) ] in
  check Alcotest.int "no spurious delta" 0 (List.length !deltas);
  Database.set_attr db p "age" (Value.Int 70);
  (match !deltas with
  | [ (o, [ a ], []) ] ->
    Alcotest.(check bool) "joined Senior" true
      (Oid.equal o p && Oid.equal a senior)
  | _ -> Alcotest.fail "expected one join delta");
  Alcotest.(check bool) "extent maintained by delta" true
    (Oid.Set.mem p (Database.extent db senior));
  deltas := [];
  Database.set_attr db p "age" (Value.Int 40);
  (match !deltas with
  | [ (o, [], [ r ]) ] ->
    Alcotest.(check bool) "left Senior" true (Oid.equal o p && Oid.equal r senior)
  | _ -> Alcotest.fail "expected one leave delta");
  Alcotest.(check bool) "extent pruned by delta" false
    (Oid.Set.mem p (Database.extent db senior));
  (* the oracle escape hatch fires the same deltas *)
  Database.set_full_reclassify db true;
  deltas := [];
  Database.set_attr db p "age" (Value.Int 80);
  check Alcotest.int "oracle delta" 1 (List.length !deltas);
  Alcotest.(check (list string)) "consistent" [] (Database.check db)

(* The event stream is a contract for derived structures (indexes,
   caches): creation is announced before any init write is visible, and
   each logical change fires exactly one event — one Membership_delta
   even when a write crosses several class predicates at once, one
   Bases_changed per base-membership edit. *)
let test_event_exactly_once () =
  let u = uni () in
  let db = u.db in
  let sixty =
    Tse_algebra.Ops.select db ~name:"SixtyPlus" ~src:u.person
      Expr.(attr "age" >= int 60)
  in
  let sixty_five =
    Tse_algebra.Ops.select db ~name:"SixtyFivePlus" ~src:u.person
      Expr.(attr "age" >= int 65)
  in
  let events = ref [] in
  Database.add_listener db (fun ev -> events := ev :: !events);
  let count p = List.length (List.filter p (List.rev !events)) in
  let n_created () =
    count (function Database.Object_created _ -> true | _ -> false)
  in
  let n_bases () =
    count (function Database.Bases_changed _ -> true | _ -> false)
  in
  let n_deltas () =
    count (function Database.Membership_delta _ -> true | _ -> false)
  in
  let p =
    Database.create_object db u.person
      ~init:[ ("name", Value.String "p"); ("age", Value.Int 30) ]
  in
  check Alcotest.int "one Object_created" 1 (n_created ());
  check Alcotest.int "creation: one Bases_changed" 1 (n_bases ());
  check Alcotest.int "creation below thresholds: no delta" 0 (n_deltas ());
  (* Object_created strictly precedes every init Attr_set *)
  let seen_create = ref false in
  List.iter
    (fun ev ->
      match ev with
      | Database.Object_created _ -> seen_create := true
      | Database.Attr_set _ ->
        Alcotest.(check bool) "no write before creation event" true
          !seen_create
      | _ -> ())
    (List.rev !events);
  (* one write crossing both predicates: exactly one delta, both gains *)
  events := [];
  Database.set_attr db p "age" (Value.Int 70);
  check Alcotest.int "threshold write: one delta" 1 (n_deltas ());
  (match
     List.find_opt
       (function Database.Membership_delta _ -> true | _ -> false)
       !events
   with
  | Some (Database.Membership_delta (o, added, removed)) ->
    Alcotest.(check bool) "delta names the object" true (Oid.equal o p);
    Alcotest.(check bool) "gained both selects" true
      (List.exists (Oid.equal sixty) added
      && List.exists (Oid.equal sixty_five) added);
    check Alcotest.int "nothing lost" 0 (List.length removed)
  | _ -> Alcotest.fail "expected a membership delta");
  check Alcotest.int "attr write: no Bases_changed" 0 (n_bases ());
  (* a write that changes no membership fires no delta *)
  events := [];
  Database.set_attr db p "age" (Value.Int 75);
  check Alcotest.int "same side of both predicates: no delta" 0 (n_deltas ());
  (* each base-membership edit fires exactly one Bases_changed *)
  events := [];
  Database.add_base_membership db p u.staff;
  check Alcotest.int "add base: one Bases_changed" 1 (n_bases ());
  events := [];
  Database.remove_base_membership db p u.staff;
  check Alcotest.int "remove base: one Bases_changed" 1 (n_bases ());
  Alcotest.(check (list string)) "consistent" [] (Database.check db)

(* ------------------------------------------------------------------ *)
(* Schema epoch: every mutator moves it, every memo follows it          *)
(* ------------------------------------------------------------------ *)

module Engine = Tse_query.Engine
module Indexes = Tse_query.Indexes
module Metrics = Tse_obs.Metrics

let adult = Expr.(attr "age" >= int 18)

(* Figure 2 plus a select class over Student, objects on both sides of
   it, and a query session. The incremental engine is pinned, so
   reclassification goes through the compiled select predicates. *)
let epoch_fixture () =
  let u = uni () in
  let db = u.db in
  Database.set_full_reclassify db false;
  let g = Database.graph db in
  let honors =
    Schema_graph.register_virtual g ~name:"Honors"
      (Klass.Select (u.student, Expr.(attr "gpa" >= Const (Value.Float 3.5))))
      []
  in
  Schema_graph.add_edge g ~sup:u.student ~sub:honors;
  Database.note_new_class db honors;
  let objs =
    List.init 6 (fun i ->
        if i mod 2 = 0 then
          Database.create_object db u.student
            ~init:[ ("age", Value.Int (16 + i)); ("gpa", Value.Float (2.5 +. float i /. 4.)) ]
        else Database.create_object db u.staff ~init:[ ("age", Value.Int (16 + i)) ])
  in
  (u, Indexes.create db, objs)

(* Warm every schema-derived memo: full types and is-a closures of every
   class, the compiled select predicate, and a plan-cache entry. *)
let warm_epoch_memos (u : Tse_workload.University.t) idx objs =
  let g = Database.graph u.db in
  List.iter
    (fun c ->
      ignore (Type_info.full_type g c);
      ignore (Schema_graph.ancestors g c);
      ignore (Schema_graph.descendants g c))
    (Schema_graph.cids g);
  List.iter (Database.reclassify u.db) objs;
  ignore (Engine.select u.db idx u.person adult)

(* After a mutation, each memo must answer from the changed schema: type
   and closure memos agree with a copy (which starts with none), the
   select predicate is compiled afresh, and the plan cache misses and
   then answers as a brute-force filter does. *)
let check_memos_follow label (u : Tse_workload.University.t) idx objs =
  let db = u.db in
  Alcotest.(check bool) (label ^ ": type and closure memos") true
    (Test_schema.memo_matches_fresh (Database.graph db));
  let compiles = Metrics.find_counter "reclass.pred_compiles" in
  List.iter (Database.reclassify db) objs;
  Alcotest.(check bool) (label ^ ": select predicate recompiled") true
    (Metrics.find_counter "reclass.pred_compiles" > compiles);
  let ex, hits = Engine.select_explain db idx u.person adult in
  Alcotest.(check bool) (label ^ ": plan recompiled") false ex.Engine.plan_cache_hit;
  Alcotest.(check bool) (label ^ ": plan answers") true
    (Oid.Set.equal hits
       (Oid.Set.filter (fun o -> Database.holds db o adult) (Database.extent db u.person)))

let epoch_mutators : (string * (Tse_workload.University.t -> unit)) list =
  let graph (u : Tse_workload.University.t) = Database.graph u.db in
  [
    ( "register_base",
      fun u ->
        Database.note_new_class u.db
          (Schema_graph.register_base (graph u) ~name:"Visitor" ~props:[]
             ~supers:[ u.person ]) );
    ( "register_virtual",
      fun u ->
        Database.note_new_class u.db
          (Schema_graph.register_virtual (graph u) ~name:"Seniors"
             (Klass.Select (u.person, Expr.(attr "age" >= int 65)))
             []) );
    ( "remove",
      fun u ->
        Schema_graph.remove (graph u) u.grader;
        Database.note_removed_class u.db u.grader );
    ("add_edge", fun u -> Schema_graph.add_edge (graph u) ~sup:u.support_staff ~sub:u.grad);
    ("remove_edge", fun u -> Schema_graph.remove_edge (graph u) ~sup:u.student ~sub:u.ta);
    ( "add_local_prop",
      fun u ->
        Schema_graph.add_local_prop (graph u) u.staff
          (Prop.stored ~origin:u.staff "gpa" Value.TFloat) );
    ("remove_local_prop", fun u -> Schema_graph.remove_local_prop (graph u) u.student "major");
    ( "replace_local_prop",
      fun u ->
        Schema_graph.replace_local_prop (graph u) u.person
          (Prop.method_ ~origin:u.person "ssn" (Expr.int 7)) );
    ("rename", fun u -> Schema_graph.rename (graph u) u.grad "Graduate");
    ( "install + relink_subs",
      fun u ->
        (* a class record built on a copy, installed verbatim: each of the
           two loader steps moves the epoch on its own *)
        let g = graph u in
        let g' = Schema_graph.copy g in
        let extra = Schema_graph.register_base g' ~name:"Extra" ~props:[] ~supers:[] in
        let v0 = Schema_graph.version g in
        Schema_graph.install g (Schema_graph.find_exn g' extra);
        let v1 = Schema_graph.version g in
        Schema_graph.relink_subs g;
        Alcotest.(check bool) "install moves the epoch" true (v1 > v0);
        Alcotest.(check bool) "relink_subs moves the epoch" true
          (Schema_graph.version g > v1);
        Database.note_new_class u.db extra );
  ]

let test_every_mutator_moves_the_epoch () =
  List.iter
    (fun (label, mutate) ->
      let u, idx, objs = epoch_fixture () in
      warm_epoch_memos u idx objs;
      let before = Schema_graph.version (Database.graph u.db) in
      mutate u;
      Alcotest.(check bool) (label ^ ": epoch moved") true
        (Schema_graph.version (Database.graph u.db) > before);
      check_memos_follow label u idx objs)
    epoch_mutators

(* The compiled attribute getter binds the single class declaring the
   attribute at compile time. Once a second class gains the attribute, a
   plan compiled before would read only the first declarer's slices and
   miss the new class's members. *)
let test_epoch_single_declarer_fast_path () =
  let u = uni () in
  let db = u.db in
  let g = Database.graph db in
  let badge = Expr.(attr "badge" === int 1) in
  Schema_graph.add_local_prop g u.student
    (Prop.stored ~origin:u.student "badge" Value.TInt);
  let s = Database.create_object db u.student ~init:[ ("badge", Value.Int 1) ] in
  let idx = Indexes.create db in
  Alcotest.(check (list int)) "one declarer" [ Oid.to_int s ]
    (List.map Oid.to_int (Oid.Set.elements (Engine.select db idx u.person badge)));
  Schema_graph.add_local_prop g u.staff
    (Prop.stored ~origin:u.staff "badge" Value.TInt);
  let f = Database.create_object db u.staff ~init:[ ("badge", Value.Int 1) ] in
  Alcotest.(check (list int)) "both declarers" [ Oid.to_int s; Oid.to_int f ]
    (List.map Oid.to_int (Oid.Set.elements (Engine.select db idx u.person badge)))

let suite =
  [
    Alcotest.test_case "create + extent closure" `Quick test_create_and_extents;
    Alcotest.test_case "property access" `Quick test_property_access;
    Alcotest.test_case "method evaluation" `Quick test_method_evaluation;
    Alcotest.test_case "base membership add/remove" `Quick
      test_base_membership_changes;
    Alcotest.test_case "membership closure on add" `Quick
      test_membership_closure_on_add;
    Alcotest.test_case "select class membership tracks updates" `Quick
      test_select_class_membership;
    Alcotest.test_case "refine class gives new stored attribute" `Quick
      test_refine_class_membership;
    Alcotest.test_case "union/intersect/difference membership" `Quick
      test_set_ops_membership;
    Alcotest.test_case "select over refine (derived on derived)" `Quick
      test_derived_on_derived;
    Alcotest.test_case "destroy object" `Quick test_destroy_object;
    Alcotest.test_case "populated university is consistent" `Quick
      test_populate_consistency;
    Alcotest.test_case "untouched attribute: zero formula evaluations" `Quick
      test_zero_eval_on_untouched_attr;
    Alcotest.test_case "nonconvergence hook fires once" `Quick
      test_nonconvergence_hook;
    Alcotest.test_case "creation event precedes init writes" `Quick
      test_create_event_order;
    Alcotest.test_case "membership deltas drive extents" `Quick
      test_membership_delta_events;
    Alcotest.test_case "events fire exactly once per change" `Quick
      test_event_exactly_once;
    Alcotest.test_case "every schema mutator moves the epoch" `Quick
      test_every_mutator_moves_the_epoch;
    Alcotest.test_case "epoch: single-declarer fast path" `Quick
      test_epoch_single_declarer_fast_path;
  ]
