(* Tests for view schemas, hierarchy generation, type closure and the
   view schema history. *)

open Tse_store
open Tse_schema
open Tse_db
open Tse_views

let check = Alcotest.check
let uni () = Tse_workload.University.build ()

let view_of u names =
  let g = Database.graph u.Tse_workload.University.db in
  View_schema.make ~name:"V" ~version:0 g
    (List.map (fun n -> (Schema_graph.find_by_name_exn g n).Klass.cid) names)

let test_view_basics () =
  let u = uni () in
  let v = view_of u [ "Person"; "Student"; "TA" ] in
  check Alcotest.int "size" 3 (View_schema.size v);
  Alcotest.(check bool) "mem" true (View_schema.mem v u.student);
  Alcotest.(check bool) "not mem" false (View_schema.mem v u.grad);
  check (Alcotest.option Alcotest.string) "local name" (Some "Student")
    (View_schema.local_name v u.student);
  View_schema.rename v u.student "Pupil";
  check
    (Alcotest.option (Alcotest.testable Oid.pp Oid.equal))
    "renamed lookup" (Some u.student) (View_schema.cid_of v "Pupil");
  Alcotest.(check bool) "old name free" true (View_schema.cid_of v "Student" = None);
  (try
     View_schema.rename v u.person "Pupil";
     Alcotest.fail "expected name clash"
   with Invalid_argument _ -> ())

let test_generation_skips_hidden_middle () =
  let u = uni () in
  (* Staff is NOT in the view: TeachingStaff connects directly to Person *)
  let v = view_of u [ "Person"; "TeachingStaff"; "TA" ] in
  let g = Database.graph u.db in
  let edges = Generation.edges g v in
  let names =
    List.map
      (fun (s, b) ->
        (Schema_graph.name_of g s, Schema_graph.name_of g b))
      edges
    |> List.sort compare
  in
  check
    Alcotest.(list (pair string string))
    "edges skip hidden classes"
    [ ("Person", "TeachingStaff"); ("TeachingStaff", "TA") ]
    names

let test_generation_diamond () =
  let u = uni () in
  let v = view_of u [ "Person"; "Student"; "TeachingStaff"; "TA" ] in
  let g = Database.graph u.db in
  let supers = Generation.direct_supers_in_view g v u.ta in
  check Alcotest.int "TA has two view supers" 2 (List.length supers);
  check Alcotest.(list string) "roots" [ "Person" ]
    (List.map (Schema_graph.name_of g) (Generation.roots g v))

let test_descendants_in_view () =
  let u = uni () in
  let v = view_of u [ "Person"; "Student"; "TA"; "Grader" ] in
  let g = Database.graph u.db in
  let ds = Generation.descendants_in_view g v u.student in
  check Alcotest.(list string) "descendants incl. self, topmost first"
    [ "Student"; "TA"; "Grader" ]
    (List.map (Schema_graph.name_of g) ds)

let test_type_closure () =
  let u = uni () in
  let g = Database.graph u.db in
  (* add a class-typed attribute: Student.advisor : ref<Staff> *)
  Schema_graph.add_local_prop
    g u.student
    (Prop.stored ~origin:u.student "advisor" (Value.TRef "Staff"));
  (* Person is deliberately absent: no view class covers Staff *)
  let v = view_of u [ "Student" ] in
  Alcotest.(check bool) "not closed" false (Closure.is_closed u.db v);
  (match Closure.missing u.db v with
  | [ (cid, attr, cname) ] ->
    Alcotest.(check bool) "violating class" true (Oid.equal cid u.student);
    check Alcotest.string "attr" "advisor" attr;
    check Alcotest.string "domain" "Staff" cname
  | _ -> Alcotest.fail "expected exactly one violation");
  let added = Closure.complete u.db v in
  check Alcotest.int "one class added" 1 (List.length added);
  Alcotest.(check bool) "closed now" true (Closure.is_closed u.db v);
  Alcotest.(check bool) "Staff pulled in" true (View_schema.mem v u.staff)

let test_type_closure_covered_by_ancestor () =
  let u = uni () in
  let g = Database.graph u.db in
  Schema_graph.add_local_prop
    g u.student
    (Prop.stored ~origin:u.student "advisor" (Value.TRef "Staff"));
  (* Person (an ancestor of Staff) is in the view: the reference target is
     representable, so the view counts as closed *)
  let v = view_of u [ "Person"; "Student" ] in
  Alcotest.(check bool) "Person does not cover Staff? it does" true
    (Closure.is_closed u.db v
    = (* Person is an ancestor of Staff, so covered *) true)

let test_history () =
  let u = uni () in
  let g = Database.graph u.db in
  let h = History.create () in
  let v0 = View_schema.make ~name:"V" ~version:0 g [ u.person ] in
  History.register h v0;
  (* wrong version number is rejected *)
  (try
     History.register h (View_schema.make ~name:"V" ~version:5 g [ u.person ]);
     Alcotest.fail "expected version gap rejection"
   with Invalid_argument _ -> ());
  let v1 = History.replace h (View_schema.make ~name:"V" ~version:0 g [ u.student ]) in
  check Alcotest.int "auto versioned" 1 v1.View_schema.version;
  check Alcotest.int "two versions" 2 (List.length (History.versions h "V"));
  (* old versions stay accessible *)
  (match History.version h "V" 0 with
  | Some v -> Alcotest.(check bool) "v0 intact" true (View_schema.mem v u.person)
  | None -> Alcotest.fail "v0 lost");
  check Alcotest.(list string) "names" [ "V" ] (History.view_names h);
  (match History.current h "V" with
  | Some v -> check Alcotest.int "current is v1" 1 v.View_schema.version
  | None -> Alcotest.fail "no current")

let test_substitute () =
  let u = uni () in
  let v = view_of u [ "Person"; "Student" ] in
  let v' = View_schema.substitute v ~old_cid:u.student ~new_cid:u.grad in
  (* the local name travels to the replacement class *)
  check
    (Alcotest.option (Alcotest.testable Oid.pp Oid.equal))
    "name points at new class" (Some u.grad) (View_schema.cid_of v' "Student");
  (* the original view is untouched *)
  check
    (Alcotest.option (Alcotest.testable Oid.pp Oid.equal))
    "original untouched" (Some u.student) (View_schema.cid_of v "Student")

let suite =
  [
    Alcotest.test_case "view schema basics + renaming" `Quick test_view_basics;
    Alcotest.test_case "generation skips hidden classes" `Quick
      test_generation_skips_hidden_middle;
    Alcotest.test_case "generation keeps diamonds" `Quick test_generation_diamond;
    Alcotest.test_case "descendants within view" `Quick test_descendants_in_view;
    Alcotest.test_case "type closure check and completion" `Quick
      test_type_closure;
    Alcotest.test_case "type closure covered by ancestor" `Quick
      test_type_closure_covered_by_ancestor;
    Alcotest.test_case "view schema history" `Quick test_history;
    Alcotest.test_case "substitution keeps local names" `Quick test_substitute;
  ]
