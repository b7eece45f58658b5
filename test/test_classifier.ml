(* Focused tests for the classification algorithm: intended types,
   placement, duplicate detection and property promotion. *)

open Tse_store
open Tse_schema
open Tse_db
open Tse_classifier

let check = Alcotest.check
let uni () = Tse_workload.University.build ()

let prop_names props = List.map (fun (p : Prop.t) -> p.Prop.name) props
  |> List.sort String.compare

let test_intended_types () =
  let u = uni () in
  let db = u.db in
  let names d = prop_names (Classification.intended_type db d) in
  (* select keeps the source type *)
  check Alcotest.(list string) "select"
    [ "age"; "name"; "ssn" ]
    (names (Klass.Select (u.person, Expr.bool true)));
  (* hide subtracts *)
  check Alcotest.(list string) "hide"
    [ "name"; "ssn" ]
    (names (Klass.Hide ([ "age" ], u.person)));
  (* refine adds *)
  check Alcotest.(list string) "refine"
    [ "age"; "name"; "ssn"; "x" ]
    (names
       (Klass.Refine ([ Prop.stored ~origin:(Oid.of_int 0) "x" Value.TInt ], u.person)));
  (* union: common properties = lowest common supertype *)
  check Alcotest.(list string) "union"
    [ "age"; "name"; "salary"; "ssn" ]
    (names (Klass.Union (u.teaching_staff, u.support_staff)));
  (* intersect merges *)
  check Alcotest.(list string) "intersect"
    [ "age"; "boss"; "lecture"; "name"; "salary"; "ssn" ]
    (names (Klass.Intersect (u.teaching_staff, u.support_staff)));
  (* difference keeps the first argument *)
  check Alcotest.(list string) "difference"
    [ "age"; "gpa"; "major"; "name"; "ssn" ]
    (names (Klass.Difference (u.student, u.staff)))

let test_duplicate_detection_modulo_commutativity () =
  let u = uni () in
  let db = u.db in
  let a = Tse_algebra.Ops.union db ~name:"U1" u.student u.staff in
  (* union is commutative: swapped arguments are the same class *)
  let b = Tse_algebra.Ops.union db ~name:"U2" u.staff u.student in
  Alcotest.(check bool) "commutative duplicate" true (Oid.equal a b);
  (* difference is NOT commutative *)
  let d1 = Tse_algebra.Ops.difference db ~name:"D1" u.student u.staff in
  let d2 = Tse_algebra.Ops.difference db ~name:"D2" u.staff u.student in
  Alcotest.(check bool) "difference not commutative" false (Oid.equal d1 d2)

let test_duplicate_detection_nested () =
  let u = uni () in
  let db = u.db in
  let q =
    Tse_algebra.Ops.(
      Hide ([ "ssn" ], Select (Class "Person", Expr.(attr "age" >= int 18))))
  in
  let v1 = Tse_algebra.Ops.define_vc db ~name:"V1" q in
  let size = Schema_graph.size (Database.graph db) in
  (* re-running the same nested query reuses BOTH levels *)
  let v2 = Tse_algebra.Ops.define_vc db ~name:"V2" q in
  Alcotest.(check bool) "outer reused" true (Oid.equal v1 v2);
  check Alcotest.int "no new classes at all" size
    (Schema_graph.size (Database.graph db))

let test_promotion_shares_identity () =
  let u = uni () in
  let db = u.db in
  let g = Database.graph db in
  let ageless = Tse_algebra.Ops.hide db ~name:"NoGpa" ~props:[ "gpa" ] ~src:u.student in
  (* 'major' was local at Student; the hide class got a promoted copy with
     the SAME identity, so Student's inheritance view is unchanged *)
  let at_hide = Option.get (Type_info.find_usable g ageless "major") in
  let at_student = Option.get (Type_info.find_usable g u.student "major") in
  Alcotest.(check bool) "promoted copy shares uid" true
    (Prop.same_prop at_hide at_student);
  Alcotest.(check bool) "marked promoted" true at_hide.Prop.promoted

let test_union_between_related_classes () =
  let u = uni () in
  let db = u.db in
  let g = Database.graph db in
  (* union(A, B) where A is an ancestor of B: extent = extent(A); must not
     cycle and must sit above A *)
  let un = Tse_algebra.Ops.union db ~name:"PS" u.person u.student in
  Alcotest.(check bool) "above person" true
    (Schema_graph.is_strict_ancestor g ~anc:un ~desc:u.person);
  Alcotest.(check (list string)) "invariants" [] (Invariants.check g)

let test_refine_from_validation () =
  let u = uni () in
  (try
     ignore
       (Tse_algebra.Ops.refine_from u.db ~name:"Bad" ~src:u.person
          ~prop_name:"ssn" ~target:u.grad);
     Alcotest.fail "target already has the property: must reject"
   with Tse_algebra.Ops.Error _ -> ());
  try
    ignore
      (Tse_algebra.Ops.refine_from u.db ~name:"Bad2" ~src:u.support_staff
         ~prop_name:"nosuch" ~target:u.grad);
    Alcotest.fail "unknown property: must reject"
  with Tse_algebra.Ops.Error _ -> ()

let test_edge_repair_removes_redundancy () =
  let u = uni () in
  let db = u.db in
  let g = Database.graph db in
  (* inserting a refine class below Student must not leave Student with a
     transitive-redundant edge to the new class's subclasses *)
  let r1 =
    Tse_algebra.Ops.refine db ~name:"R1"
      ~props:[ Prop.stored ~origin:(Oid.of_int 0) "a" Value.TInt ]
      ~src:u.student
  in
  let r2 =
    Tse_algebra.Ops.refine db ~name:"R2"
      ~props:[ Prop.stored ~origin:(Oid.of_int 0) "b" Value.TInt ]
      ~src:r1
  in
  ignore r2;
  (* no direct Student -> R2 edge: it reaches R2 through R1 *)
  let direct_subs = Schema_graph.subs g u.student in
  Alcotest.(check bool) "no redundant direct edge" false
    (List.exists (Oid.equal r2) direct_subs);
  Alcotest.(check (list string)) "invariants" [] (Invariants.check g)

let test_classified_class_extents_populated () =
  let u = uni () in
  let db = u.db in
  ignore (Tse_workload.University.populate u ~n:24);
  (* classification populates extents for classes created AFTER the data *)
  let adult =
    Tse_algebra.Ops.select db ~name:"Adult" ~src:u.person
      Expr.(attr "age" >= int 18)
  in
  Alcotest.(check bool) "extent non-empty" true (Database.extent_size db adult > 0);
  Alcotest.(check (list string)) "consistent" [] (Database.check db)

(* ------------------------------------------------------------------ *)
(* Class admission: the guards that send candidates to the fixpoint    *)
(* ------------------------------------------------------------------ *)

(* Run one scenario on an incremental database and on its full-fixpoint
   oracle twin. [setup] builds the state before the admission; [admit]
   creates and classifies the new class while the event stream is
   recorded. Checks, on both twins: membership and extents agree class by
   class (by name), the database is consistent, and every object whose
   membership moved got exactly one Membership_delta. Returns the number
   of objects that moved and how far [reclass.admit_fallback] moved on
   the incremental twin. *)
let admission_twins ~setup ~admit =
  let run full =
    let u = uni () in
    Database.set_full_reclassify u.db full;
    let objs = Tse_workload.University.populate u ~n:24 in
    let ctx = setup u objs in
    let snapshot () = List.map (Database.member_classes u.db) objs in
    let before = snapshot () in
    let deltas = ref [] in
    Database.add_listener u.db (function
      | Database.Membership_delta (o, _, _) -> deltas := o :: !deltas
      | _ -> ());
    let fb0 = Tse_obs.Metrics.find_counter "reclass.admit_fallback" in
    admit u ctx;
    let fallbacks = Tse_obs.Metrics.find_counter "reclass.admit_fallback" - fb0 in
    let moved =
      List.combine objs (List.combine before (snapshot ()))
      |> List.filter_map (fun (o, (b, a)) -> if b = a then None else Some o)
    in
    check Alcotest.(list string) "consistent" [] (Database.check u.db);
    check Alcotest.int "one delta per moved object" (List.length moved)
      (List.length !deltas);
    check Alcotest.(list int) "deltas name the moved objects"
      (List.sort compare (List.map Oid.to_int moved))
      (List.sort compare (List.map Oid.to_int !deltas));
    let g = Database.graph u.db in
    let facts =
      List.map
        (fun (k : Klass.t) ->
          ( k.name,
            List.map
              (fun o ->
                (Database.is_member u.db o k.cid, Oid.Set.mem o (Database.extent u.db k.cid)))
              objs ))
        (Schema_graph.classes g)
      |> List.sort compare
    in
    (facts, List.length moved, fallbacks)
  in
  let facts, moved, fallbacks = run false in
  let oracle_facts, oracle_moved, _ = run true in
  Alcotest.(check bool) "membership == oracle twin" true (facts = oracle_facts);
  check Alcotest.int "same objects moved as in the oracle" oracle_moved moved;
  (moved, fallbacks)

(* A select reading a method whose body tests membership of a class that
   does not exist yet: the In_class test reads false until a class of
   that name is admitted. *)
let test_admit_observed_by_name () =
  let moved, fallbacks =
    admission_twins
      ~setup:(fun u _ ->
        let r =
          Tse_algebra.Ops.refine u.db ~name:"PersonR" ~src:u.person
            ~props:[ Prop.method_ ~origin:(Oid.of_int 0) "adult" Expr.(In_class "Adult") ]
        in
        Tse_algebra.Ops.select u.db ~name:"InAdult" ~src:r
          Expr.(attr "adult" === bool true))
      ~admit:(fun u in_adult ->
        let adult =
          Tse_algebra.Ops.select u.db ~name:"Adult" ~src:u.person
            Expr.(attr "age" >= int 30)
        in
        Alcotest.(check bool) "joiners also join the observing select" true
          (Oid.Set.equal (Database.extent u.db adult)
             (Database.extent u.db in_adult)))
  in
  Alcotest.(check bool) "some objects joined" true (moved > 0);
  Alcotest.(check bool) "fixpoint ran" true (fallbacks > 0)

(* Hiding gpa promotes Student's major onto the hide class; a select
   reading major observes that class through the carrier rule. *)
let test_admit_observed_promoted_prop () =
  let moved, fallbacks =
    admission_twins
      ~setup:(fun u _ ->
        ignore
          (Tse_algebra.Ops.select u.db ~name:"Majors" ~src:u.student
             Expr.(attr "major" === str "cs")))
      ~admit:(fun u () ->
        let h = Tse_algebra.Ops.hide u.db ~name:"NoGpa" ~props:[ "gpa" ] ~src:u.student in
        Alcotest.(check bool) "major promoted onto the hide class" true
          (Klass.has_local_prop (Schema_graph.find_exn (Database.graph u.db) h) "major"))
  in
  Alcotest.(check bool) "students joined" true (moved > 0);
  Alcotest.(check bool) "fixpoint ran" true (fallbacks > 0)

(* The classifier never places a hide class this way by itself; the test
   links it by hand below an unrelated class first. Once A' sits between
   B and A, B becomes an ancestor of A, so A's definition of p overrides
   B's and a select on p flips for objects in both — a change no
   formula of the new class shows. *)
let test_admit_relates_existing_classes () =
  let moved, fallbacks =
    admission_twins
      ~setup:(fun u objs ->
        let g = Database.graph u.db in
        let p () = Prop.stored ~origin:(Oid.of_int 0) "p" Value.TInt in
        let a = Schema_graph.register_base g ~name:"A" ~props:[ p () ] ~supers:[] in
        let b = Schema_graph.register_base g ~name:"B" ~props:[ p () ] ~supers:[] in
        Database.note_new_class u.db a;
        Database.note_new_class u.db b;
        List.iteri
          (fun i o ->
            if i mod 3 = 0 then begin
              Database.add_base_membership u.db o a;
              Database.set_attr u.db o "p" (Value.Int i);
              if i mod 2 = 0 then Database.add_base_membership u.db o b
            end)
          objs;
        let has_p =
          Tse_algebra.Ops.select u.db ~name:"HasP" ~src:a Expr.(attr "p" >= int 0)
        in
        (* p is ambiguous for members of both A and B *)
        let in_both = Oid.Set.inter (Database.extent u.db a) (Database.extent u.db b) in
        Alcotest.(check bool) "objects in A and B" false (Oid.Set.is_empty in_both);
        Alcotest.(check bool) "ambiguous p reads false" true
          (Oid.Set.is_empty (Oid.Set.inter in_both (Database.extent u.db has_p)));
        (a, b, has_p, in_both))
      ~admit:(fun u (a, b, has_p, in_both) ->
        let g = Database.graph u.db in
        let h = Schema_graph.register_virtual g ~name:"A'" (Klass.Hide ([ "p" ], a)) [] in
        Schema_graph.add_edge g ~sup:b ~sub:h;
        ignore (Classification.integrate u.db h);
        Alcotest.(check bool) "B is now an ancestor of A" true
          (Schema_graph.is_strict_ancestor g ~anc:b ~desc:a);
        Alcotest.(check bool) "A's p now overrides B's: the select flips" true
          (Oid.Set.subset in_both (Database.extent u.db has_p)))
  in
  Alcotest.(check bool) "objects moved" true (moved > 0);
  Alcotest.(check bool) "fixpoint ran" true (fallbacks > 0)

(* Refine_from with a provider that is not an ancestor of the target:
   the new class sits below both, so a member of the target satisfies the
   formula but is not yet a member of the provider. *)
let test_admit_missing_ancestor () =
  let moved, fallbacks =
    admission_twins
      ~setup:(fun _ _ -> ())
      ~admit:(fun u () ->
        let r =
          Tse_algebra.Ops.refine_from u.db ~name:"GradBoss" ~src:u.support_staff
            ~prop_name:"boss" ~target:u.grad
        in
        Alcotest.(check bool) "provider is an ancestor of the new class" true
          (Schema_graph.is_strict_ancestor (Database.graph u.db) ~anc:u.support_staff
             ~desc:r))
  in
  Alcotest.(check bool) "grads moved" true (moved > 0);
  Alcotest.(check bool) "fixpoint ran" true (fallbacks > 0)

(* No guard fires: the new class is filled from its own formula alone. *)
let test_admit_fast_path () =
  let fast0 = Tse_obs.Metrics.find_counter "reclass.admit_fast" in
  let moved, fallbacks =
    admission_twins
      ~setup:(fun _ _ -> ())
      ~admit:(fun u () ->
        ignore
          (Tse_algebra.Ops.select u.db ~name:"Adult" ~src:u.person
             Expr.(attr "age" >= int 30)))
  in
  Alcotest.(check bool) "objects joined" true (moved > 0);
  check Alcotest.int "no fallback" 0 fallbacks;
  Alcotest.(check bool) "fast path taken" true
    (Tse_obs.Metrics.find_counter "reclass.admit_fast" > fast0)

let suite =
  [
    Alcotest.test_case "intended types per operator" `Quick test_intended_types;
    Alcotest.test_case "duplicates modulo commutativity" `Quick
      test_duplicate_detection_modulo_commutativity;
    Alcotest.test_case "nested duplicate reuse" `Quick test_duplicate_detection_nested;
    Alcotest.test_case "promotion shares property identity" `Quick
      test_promotion_shares_identity;
    Alcotest.test_case "union of related classes" `Quick
      test_union_between_related_classes;
    Alcotest.test_case "refine_from validation" `Quick test_refine_from_validation;
    Alcotest.test_case "edge repair removes redundancy" `Quick
      test_edge_repair_removes_redundancy;
    Alcotest.test_case "late classification populates extents" `Quick
      test_classified_class_extents_populated;
    Alcotest.test_case "admission: fast path" `Quick test_admit_fast_path;
    Alcotest.test_case "admission: select names the new class" `Quick
      test_admit_observed_by_name;
    Alcotest.test_case "admission: select reads a promoted property" `Quick
      test_admit_observed_promoted_prop;
    Alcotest.test_case "admission: placement relates existing classes" `Quick
      test_admit_relates_existing_classes;
    Alcotest.test_case "admission: formula holds, ancestor missing" `Quick
      test_admit_missing_ancestor;
  ]
