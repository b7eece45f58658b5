(* Tests for the schema layer: expressions, properties, the is-a DAG and
   full-type computation with the paper's conflict rules. *)

open Tse_store
open Tse_schema

let check = Alcotest.check
let vpp = Alcotest.testable Value.pp Value.equal

(* A tiny standalone graph for structural tests. *)
let graph () = Schema_graph.create ~gen:(Oid.Gen.create ())

let stored = Prop.stored ~origin:(Oid.of_int 0)

let test_expr_eval () =
  let slots = [ ("age", Value.Int 30); ("name", Value.String "ann") ] in
  let env =
    {
      Expr.self = Oid.of_int 1;
      get =
        (fun n ->
          match List.assoc_opt n slots with
          | Some v -> v
          | None -> raise (Expr.Unknown_property n));
      member_of = (fun c -> c = "Person");
    }
  in
  let open Expr in
  check vpp "arith" (Value.Int 35) (eval env (Arith (Add, attr "age", int 5)));
  check vpp "cmp" (Value.Bool true) (eval env (attr "age" >= int 18));
  check vpp "and/or" (Value.Bool true)
    (eval env ((attr "age" > int 40) || (attr "name" === str "ann")));
  check vpp "in_class" (Value.Bool true) (eval env (In_class "Person"));
  check vpp "in_class neg" (Value.Bool false) (eval env (In_class "Robot"));
  check vpp "if" (Value.String "adult")
    (eval env (If (attr "age" >= int 18, str "adult", str "minor")));
  check vpp "self" (Value.Ref (Oid.of_int 1)) (eval env Self);
  check vpp "is_null" (Value.Bool false) (eval env (Is_null (attr "age")));
  Alcotest.check_raises "unknown property" (Expr.Unknown_property "zz")
    (fun () -> ignore (eval env (attr "zz")));
  (try
     ignore (eval env (Arith (Add, attr "name", int 1)));
     Alcotest.fail "expected type error"
   with Expr.Type_error _ -> ());
  (try
     ignore (eval env (Arith (Div, int 1, int 0)));
     Alcotest.fail "expected division by zero"
   with Expr.Type_error _ -> ())

let test_expr_null_semantics () =
  let env =
    { Expr.self = Oid.of_int 1;
      get = (fun _ -> Value.Null);
      member_of = (fun _ -> false) }
  in
  let open Expr in
  check vpp "null = null" (Value.Bool true) (eval env (attr "x" === Const Value.Null));
  check vpp "null <> 1" (Value.Bool true) (eval env (attr "x" <> int 1));
  Alcotest.(check bool) "null predicate is false" false
    (eval_bool env (attr "x"));
  (try
     ignore (eval env (attr "x" < int 1));
     Alcotest.fail "expected type error on ordering null"
   with Expr.Type_error _ -> ())

let test_expr_utils () =
  let open Expr in
  let e = (attr "a" > int 1) && In_class "C" && Is_null (attr "b") in
  check Alcotest.(list string) "free attrs" [ "a"; "b" ] (free_attrs e);
  check Alcotest.(list string) "classes" [ "C" ] (referenced_classes e);
  Alcotest.(check bool) "equal reflexive" true (equal e e);
  Alcotest.(check bool) "not equal" false (equal e (attr "a" > int 2));
  let renamed = rename_attr ~old_name:"a" ~new_name:"z" e in
  check Alcotest.(list string) "renamed" [ "b"; "z" ] (free_attrs renamed)

let test_prop_identity () =
  let p = stored "age" Value.TInt in
  let q = Prop.rename p "years" in
  Alcotest.(check bool) "rename keeps identity" true (Prop.same_prop p q);
  let r = Prop.with_fresh_uid p in
  Alcotest.(check bool) "fresh uid distinct" false (Prop.same_prop p r);
  Alcotest.(check bool) "signature equal despite uid" true
    (Prop.signature_equal p r);
  Alcotest.(check bool) "renamed not signature equal" false
    (Prop.signature_equal p q)

let test_graph_edges () =
  let g = graph () in
  let a = Schema_graph.register_base g ~name:"A" ~props:[] ~supers:[] in
  let b = Schema_graph.register_base g ~name:"B" ~props:[] ~supers:[ a ] in
  let c = Schema_graph.register_base g ~name:"C" ~props:[] ~supers:[ b ] in
  Alcotest.(check bool) "A ancestor of C" true
    (Schema_graph.is_strict_ancestor g ~anc:a ~desc:c);
  Alcotest.(check bool) "C not ancestor of A" false
    (Schema_graph.is_strict_ancestor g ~anc:c ~desc:a);
  check Alcotest.int "descendants of A" 2
    (Oid.Set.cardinal (Schema_graph.descendants g a));
  (* cycle rejection *)
  (try
     Schema_graph.add_edge g ~sup:c ~sub:a;
     Alcotest.fail "expected cycle rejection"
   with Invalid_argument _ -> ());
  (* root handling: removing B's only parent edge reattaches to root *)
  Schema_graph.remove_edge g ~sup:a ~sub:b;
  check Alcotest.(list string)
    "B reattached to root"
    [ "Object" ]
    (List.map (Schema_graph.name_of g) (Schema_graph.supers g b));
  (* adding a real superclass drops the root edge *)
  Schema_graph.add_edge g ~sup:a ~sub:b;
  check Alcotest.(list string) "root edge dropped" [ "A" ]
    (List.map (Schema_graph.name_of g) (Schema_graph.supers g b));
  Alcotest.(check (list string)) "invariants hold" [] (Invariants.check g)

let test_graph_remove_class () =
  let g = graph () in
  let a = Schema_graph.register_base g ~name:"A" ~props:[] ~supers:[] in
  let b = Schema_graph.register_base g ~name:"B" ~props:[] ~supers:[ a ] in
  let c = Schema_graph.register_base g ~name:"C" ~props:[] ~supers:[ b ] in
  Schema_graph.remove g b;
  Alcotest.(check bool) "B gone" false (Schema_graph.mem g b);
  (* C must not be left disconnected *)
  check Alcotest.(list string) "C reattached to root" [ "Object" ]
    (List.map (Schema_graph.name_of g) (Schema_graph.supers g c));
  Alcotest.(check (list string)) "invariants hold" [] (Invariants.check g)

let test_graph_topo_and_paths () =
  let g = graph () in
  let a = Schema_graph.register_base g ~name:"A" ~props:[] ~supers:[] in
  let b = Schema_graph.register_base g ~name:"B" ~props:[] ~supers:[ a ] in
  let c = Schema_graph.register_base g ~name:"C" ~props:[] ~supers:[ a ] in
  let d = Schema_graph.register_base g ~name:"D" ~props:[] ~supers:[ b; c ] in
  let order = Schema_graph.topo_order g in
  let pos x = Option.get (List.find_index (Oid.equal x) order) in
  Alcotest.(check bool) "a before b" true (pos a < pos b);
  Alcotest.(check bool) "b before d" true (pos b < pos d);
  Alcotest.(check bool) "c before d" true (pos c < pos d);
  let paths = Schema_graph.paths_down g ~src:a ~dst:d in
  check Alcotest.int "two diamond paths" 2 (List.length paths);
  List.iter
    (fun p -> check Alcotest.int "path length" 3 (List.length p))
    paths;
  Alcotest.(check bool) "redundant edge detection" false
    (Schema_graph.is_redundant_edge g ~sup:a ~sub:b);
  Schema_graph.add_edge g ~sup:a ~sub:d;
  Alcotest.(check bool) "a->d redundant" true
    (Schema_graph.is_redundant_edge g ~sup:a ~sub:d)

let test_graph_copy_isolation () =
  let g = graph () in
  let a = Schema_graph.register_base g ~name:"A" ~props:[] ~supers:[] in
  let g' = Schema_graph.copy g in
  let _b = Schema_graph.register_base g' ~name:"B" ~props:[] ~supers:[ a ] in
  Schema_graph.rename g' a "Renamed";
  check Alcotest.string "original untouched" "A" (Schema_graph.name_of g a);
  check Alcotest.int "original size" 2 (Schema_graph.size g);
  check Alcotest.int "copy size" 3 (Schema_graph.size g')

let test_inheritance_basic () =
  let g = graph () in
  let a =
    Schema_graph.register_base g ~name:"A"
      ~props:[ stored "x" Value.TInt ]
      ~supers:[]
  in
  let b =
    Schema_graph.register_base g ~name:"B"
      ~props:[ stored "y" Value.TInt ]
      ~supers:[ a ]
  in
  check Alcotest.(list string) "full inheritance" [ "x"; "y" ]
    (Type_info.prop_names g b);
  Alcotest.(check bool) "subtype" true (Type_info.subtype_of g ~sub:b ~sup:a);
  Alcotest.(check bool) "not supertype" false
    (Type_info.subtype_of g ~sub:a ~sup:b)

let test_inheritance_override () =
  let g = graph () in
  let a =
    Schema_graph.register_base g ~name:"A"
      ~props:[ stored "x" Value.TInt ]
      ~supers:[]
  in
  let b =
    Schema_graph.register_base g ~name:"B"
      ~props:[ stored "x" Value.TString ]
      ~supers:[ a ]
  in
  let c = Schema_graph.register_base g ~name:"C" ~props:[] ~supers:[ b ] in
  (* local override wins and propagates to subclasses *)
  (match Type_info.find_usable g b "x" with
  | Some p -> Alcotest.(check bool) "B sees own x" true (p.Prop.origin = b)
  | None -> Alcotest.fail "x unresolved at B");
  (match Type_info.find_usable g c "x" with
  | Some p -> Alcotest.(check bool) "C inherits B's x" true (p.Prop.origin = b)
  | None -> Alcotest.fail "x unresolved at C");
  (* the suppressed candidate from A is still discoverable *)
  let cands = Type_info.inherited_candidates g b "x" in
  check Alcotest.int "suppressed candidate" 1 (List.length cands);
  (match cands with
  | [ p ] -> Alcotest.(check bool) "candidate from A" true (p.Prop.origin = a)
  | _ -> Alcotest.fail "expected one candidate")

let test_inheritance_diamond_no_conflict () =
  let g = graph () in
  let a =
    Schema_graph.register_base g ~name:"A"
      ~props:[ stored "x" Value.TInt ]
      ~supers:[]
  in
  let b = Schema_graph.register_base g ~name:"B" ~props:[] ~supers:[ a ] in
  let c = Schema_graph.register_base g ~name:"C" ~props:[] ~supers:[ a ] in
  let d = Schema_graph.register_base g ~name:"D" ~props:[] ~supers:[ b; c ] in
  (* one property along two paths is not a conflict *)
  match Type_info.find g d "x" with
  | Some (Type_info.Single _) -> ()
  | Some (Type_info.Conflict _) -> Alcotest.fail "diamond must not conflict"
  | None -> Alcotest.fail "x lost in diamond"

let test_inheritance_real_conflict () =
  let g = graph () in
  let a =
    Schema_graph.register_base g ~name:"A"
      ~props:[ stored "x" Value.TInt ]
      ~supers:[]
  in
  let b =
    Schema_graph.register_base g ~name:"B"
      ~props:[ stored "x" Value.TString ]
      ~supers:[]
  in
  let c = Schema_graph.register_base g ~name:"C" ~props:[] ~supers:[ a; b ] in
  (match Type_info.find g c "x" with
  | Some (Type_info.Conflict ps) ->
    check Alcotest.int "two candidates" 2 (List.length ps)
  | Some (Type_info.Single _) -> Alcotest.fail "expected conflict"
  | None -> Alcotest.fail "x missing");
  Alcotest.(check bool) "not usable while ambiguous" true
    (Type_info.find_usable g c "x" = None);
  (* user disambiguates by renaming one candidate at its origin *)
  let ka = Schema_graph.find_exn g a in
  let px = Option.get (Klass.local_prop ka "x") in
  Schema_graph.replace_local_prop g a (Prop.rename px "ax");
  Schema_graph.remove_local_prop g a "x";
  (match Type_info.find g c "x" with
  | Some (Type_info.Single p) ->
    Alcotest.(check bool) "B's survives" true (p.Prop.origin = b)
  | _ -> Alcotest.fail "conflict should be resolved");
  match Type_info.find g c "ax" with
  | Some (Type_info.Single _) -> ()
  | _ -> Alcotest.fail "renamed candidate visible"

let test_promoted_priority () =
  let g = graph () in
  (* Simulates the Section 6.2.3 situation: a promoted definition takes
     priority over another inherited same-named property. *)
  let a =
    Schema_graph.register_base g ~name:"A"
      ~props:[ stored "x" Value.TInt ]
      ~supers:[]
  in
  ignore a;
  let promoted = Prop.promote (stored "x" Value.TString) in
  let b =
    Schema_graph.register_base g ~name:"B" ~props:[ promoted ] ~supers:[]
  in
  let c = Schema_graph.register_base g ~name:"C" ~props:[] ~supers:[ a; b ] in
  match Type_info.find g c "x" with
  | Some (Type_info.Single p) ->
    Alcotest.(check bool) "promoted wins" true (p.Prop.origin = b)
  | _ -> Alcotest.fail "promoted property should resolve the conflict"

let test_uppermost_in_view () =
  let g = graph () in
  let a =
    Schema_graph.register_base g ~name:"A"
      ~props:[ stored "x" Value.TInt ]
      ~supers:[]
  in
  let b = Schema_graph.register_base g ~name:"B" ~props:[] ~supers:[ a ] in
  let c = Schema_graph.register_base g ~name:"C" ~props:[] ~supers:[ b ] in
  let view_all = Oid.Set.of_list [ a; b; c ] in
  let view_bc = Oid.Set.of_list [ b; c ] in
  Alcotest.(check bool) "A uppermost in full view" true
    (Type_info.is_uppermost_in g ~view:view_all a "x");
  Alcotest.(check bool) "B not uppermost in full view" false
    (Type_info.is_uppermost_in g ~view:view_all b "x");
  (* paper: local is view-relative — B is uppermost when A is outside *)
  Alcotest.(check bool) "B uppermost when A hidden" true
    (Type_info.is_uppermost_in g ~view:view_bc b "x")

let test_type_signature_stability () =
  let g = graph () in
  let a =
    Schema_graph.register_base g ~name:"A"
      ~props:[ stored "x" Value.TInt; Prop.method_ ~origin:(Oid.of_int 0) "m" (Expr.int 1) ]
      ~supers:[]
  in
  let b = Schema_graph.register_base g ~name:"B" ~props:[] ~supers:[ a ] in
  Alcotest.(check bool) "same type A B (B adds nothing)" true
    (Type_info.type_equal g a b);
  let c =
    Schema_graph.register_base g ~name:"Cc"
      ~props:[ stored "y" Value.TInt ]
      ~supers:[ a ]
  in
  Alcotest.(check bool) "C differs" false (Type_info.type_equal g a c)

(* ------------------------------------------------------------------ *)
(* Invariants.check: one crafted violation per documented clause.      *)
(* The mutators (add_edge, register_base, add_local_prop) refuse to    *)
(* produce these states, so each is crafted by direct record surgery,  *)
(* and the test asserts the human-readable message names the           *)
(* offending class.                                                    *)
(* ------------------------------------------------------------------ *)

let problem_mentioning needle problems =
  let contains hay =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    nl = 0 || go 0
  in
  Alcotest.(check bool)
    (Printf.sprintf "some problem mentions %S (got: %s)" needle
       (String.concat " | " problems))
    true
    (List.exists contains problems)

let two_classes () =
  let g = graph () in
  let a = Schema_graph.register_base g ~name:"A" ~props:[] ~supers:[] in
  let b = Schema_graph.register_base g ~name:"B" ~props:[] ~supers:[ a ] in
  (g, Schema_graph.find_exn g a, Schema_graph.find_exn g b)

let test_invariant_cycle () =
  let g, ka, kb = two_classes () in
  (* close the loop A -> B -> A behind add_edge's back *)
  Klass.Unsafe.set_supers ka (kb.Klass.cid :: ka.Klass.supers);
  Klass.Unsafe.set_subs kb (ka.Klass.cid :: kb.Klass.subs);
  problem_mentioning "cycle through class A" (Invariants.check g)

let test_invariant_missing_superclass () =
  let g, _, kb = two_classes () in
  Klass.Unsafe.set_supers kb (Oid.of_int 9999 :: kb.Klass.supers);
  problem_mentioning "B lists missing superclass" (Invariants.check g)

let test_invariant_missing_subclass () =
  let g, ka, _ = two_classes () in
  Klass.Unsafe.set_subs ka (Oid.of_int 9999 :: ka.Klass.subs);
  problem_mentioning "A lists missing subclass" (Invariants.check g)

let test_invariant_asymmetric_super_edge () =
  let g, ka, kb = two_classes () in
  (* B claims A as a superclass twice is fine; instead drop B from A's
     subs so the super-side listing has no matching sub-side entry *)
  Klass.Unsafe.set_subs ka
    (List.filter (fun c -> not (Oid.equal c kb.Klass.cid)) ka.Klass.subs);
  problem_mentioning "edge A->B not symmetric" (Invariants.check g)

let test_invariant_asymmetric_sub_edge () =
  let g, ka, kb = two_classes () in
  Klass.Unsafe.set_supers kb
    (List.filter (fun c -> not (Oid.equal c ka.Klass.cid)) kb.Klass.supers);
  (* B now looks disconnected too; the asymmetry clause must still fire *)
  problem_mentioning "edge A->B not symmetric" (Invariants.check g)

let test_invariant_root_with_supers () =
  let g, ka, _ = two_classes () in
  let kroot = Schema_graph.find_exn g (Schema_graph.root g) in
  Klass.Unsafe.set_supers kroot [ ka.Klass.cid ];
  Klass.Unsafe.set_subs ka (Schema_graph.root g :: ka.Klass.subs);
  problem_mentioning "root has superclasses" (Invariants.check g)

let test_invariant_disconnected () =
  let g, ka, kb = two_classes () in
  Klass.Unsafe.set_supers kb [];
  Klass.Unsafe.set_subs ka
    (List.filter (fun c -> not (Oid.equal c kb.Klass.cid)) ka.Klass.subs);
  problem_mentioning "class B is disconnected" (Invariants.check g)

let test_invariant_not_under_root () =
  let g, ka, _kb = two_classes () in
  (* detach A from the root but keep B -> A intact: A is flagged as
     disconnected, and B as not a descendant of the root *)
  let kroot = Schema_graph.find_exn g (Schema_graph.root g) in
  Klass.Unsafe.set_supers ka [];
  Klass.Unsafe.set_subs kroot
    (List.filter (fun c -> not (Oid.equal c ka.Klass.cid)) kroot.Klass.subs);
  let problems = Invariants.check g in
  problem_mentioning "class A is disconnected" problems;
  problem_mentioning "class B is not a descendant of the root" problems

let test_invariant_duplicate_name () =
  let g, _, kb = two_classes () in
  Klass.Unsafe.set_name kb "A";
  problem_mentioning "duplicate class name A" (Invariants.check g)

let test_invariant_missing_virtual_source () =
  let g, ka, _ = two_classes () in
  ignore
    (Schema_graph.register_virtual g ~name:"V"
       (Klass.Select (ka.Klass.cid, Expr.bool true))
       []);
  Schema_graph.remove g ka.Klass.cid;
  problem_mentioning "virtual class V has missing source" (Invariants.check g)

let test_invariant_duplicate_local_prop () =
  let g, ka, _ = two_classes () in
  let p = stored "x" Value.TInt in
  Klass.Unsafe.set_local_props ka [ p; p ];
  problem_mentioning "class A defines property x twice" (Invariants.check g)

let test_invariant_clean_graph_has_no_problems () =
  let g, _, _ = two_classes () in
  Alcotest.(check (list string)) "clean" [] (Invariants.check g)

(* ------------------------------------------------------------------ *)
(* Schema-epoch memos against an uncached reference                    *)
(* ------------------------------------------------------------------ *)

(* A copy of the graph starts with empty memos, so it computes full
   types and is-a closures from the class records alone. After every
   step of a random evolution chain, the memoized answers of the evolving
   graph must equal the copy's for every class. *)
let memo_matches_fresh g =
  let fresh = Schema_graph.copy g in
  List.for_all
    (fun c ->
      Type_info.full_type g c = Type_info.full_type fresh c
      && Oid.Set.equal (Schema_graph.ancestors g c) (Schema_graph.ancestors fresh c)
      && Oid.Set.equal (Schema_graph.descendants g c)
           (Schema_graph.descendants fresh c)
      && Option.map
           (fun (k : Klass.t) -> k.cid)
           (Schema_graph.find_by_name g (Schema_graph.name_of g c))
         = Some c)
    (Schema_graph.cids g)

let prop_memo_matches_fresh =
  QCheck.Test.make ~name:"schema-epoch memos == fresh graph" ~count:25
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 10_000))
    (fun seed ->
      let module Tsem = Tse_core.Tsem in
      let module Change = Tse_core.Change in
      let rng = Random.State.make [| seed; 61 |] in
      let rs =
        Tse_workload.Random_schema.generate ~seed ~classes:8 ~objects:8
          ~virtuals:3 ()
      in
      let g = Tse_db.Database.graph rs.db in
      let tsem = Tsem.of_database rs.db in
      ignore
        (Tsem.define_view_by_names tsem ~name:"V"
           (Tse_workload.Random_schema.class_names rs));
      let ok = ref (memo_matches_fresh g) in
      for _ = 1 to 30 do
        (try ignore (Tsem.evolve tsem ~view:"V" (Test_property.random_change rng rs))
         with Change.Rejected _ -> ());
        ok := !ok && memo_matches_fresh g
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Up-cone memos: a mutator drops only the touched class's down-cone    *)
(* ------------------------------------------------------------------ *)

(* Object > A{a} > B{b} > D, A > C and Object > E{e} > F. *)
let cone_fixture () =
  let g = graph () in
  let base name props supers =
    Schema_graph.register_base g ~name ~props ~supers
  in
  let a = base "A" [ stored "a" Value.TInt ] [] in
  let b = base "B" [ stored "b" Value.TInt ] [ a ] in
  ignore (base "D" [] [ b ]);
  let c = base "C" [] [ a ] in
  let e = base "E" [ stored "e" Value.TInt ] [] in
  ignore (base "F" [] [ e ]);
  (g, a, b, c, e)

let recomputes () = Tse_obs.Metrics.find_counter "schema.memo.recomputes"

(* Which entries a mutation must drop: the down-cone of one class, none,
   or all. *)
type touch = Cone of Klass.cid | Nothing | All

(* Warm every memo, mutate, then: a class outside the dropped set (the
   touched class's down-cone before or after the mutation) answers from
   its old entry, physically equal and without a recompute; a class inside
   is recomputed and agrees with a copy, which starts with no memos. *)
let check_cone label g touch mutate =
  let cids = Schema_graph.cids g in
  List.iter (fun c -> ignore (Type_info.full_type g c)) cids;
  let cone () =
    match touch with
    | Cone c when Schema_graph.mem g c ->
      Oid.Set.add c (Schema_graph.descendants g c)
    | Cone _ | Nothing -> Oid.Set.empty
    | All -> Oid.Set.of_list (Schema_graph.cids g)
  in
  let before = List.map (fun c -> (c, Schema_graph.ancestors g c)) cids in
  let cone_before = cone () in
  mutate ();
  let inside = Oid.Set.union cone_before (cone ()) in
  let fresh = Schema_graph.copy g in
  let live = List.filter (fun (c, _) -> Schema_graph.mem g c) before in
  let outside, inside = List.partition (fun (c, _) -> not (Oid.Set.mem c inside)) live in
  let n0 = recomputes () in
  List.iter
    (fun (c, old) ->
      let name = Schema_graph.name_of g c in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %s keeps its closure" label name)
        true
        (Schema_graph.ancestors g c == old);
      ignore (Type_info.full_type g c))
    outside;
  check Alcotest.int (label ^ ": no recompute outside the cone") n0 (recomputes ());
  List.iter
    (fun (c, old) ->
      let name = Schema_graph.name_of g c in
      let now = Schema_graph.ancestors g c in
      (* the root's closure is the shared empty set, whatever made it *)
      Alcotest.(check bool)
        (Printf.sprintf "%s: %s recomputed" label name)
        true
        (Oid.Set.is_empty old || now != old);
      Alcotest.(check bool)
        (Printf.sprintf "%s: %s closure as on a copy" label name)
        true
        (Oid.Set.equal now (Schema_graph.ancestors fresh c));
      Alcotest.(check bool)
        (Printf.sprintf "%s: %s full type as on a copy" label name)
        true
        (Type_info.full_type g c = Type_info.full_type fresh c))
    inside

let test_memo_cone_per_mutator () =
  let case label mutation =
    let g, a, b, c, e = cone_fixture () in
    let touch, mutate = mutation g (a, b, c, e) in
    check_cone label g touch mutate
  in
  case "add_edge (link)" (fun g (_, _, c, e) ->
      (Cone c, fun () -> Schema_graph.add_edge g ~sup:e ~sub:c));
  case "remove_edge (unlink)" (fun g (a, b, _, _) ->
      (Cone b, fun () -> Schema_graph.remove_edge g ~sup:a ~sub:b));
  case "add_local_prop" (fun g (_, b, _, _) ->
      (Cone b, fun () -> Schema_graph.add_local_prop g b (stored "x" Value.TInt)));
  case "add_local_props" (fun g (_, _, _, e) ->
      ( Cone e,
        fun () ->
          Schema_graph.add_local_props g e
            [ stored "x" Value.TInt; stored "y" Value.TInt ] ));
  case "remove_local_prop" (fun g (a, _, _, _) ->
      (Cone a, fun () -> Schema_graph.remove_local_prop g a "a"));
  case "replace_local_prop" (fun g (_, _, _, e) ->
      (Cone e, fun () -> Schema_graph.replace_local_prop g e (stored "e" Value.TString)));
  case "rename" (fun g (_, b, _, _) -> (Cone b, fun () -> Schema_graph.rename g b "B2"));
  case "remove" (fun g (_, b, _, _) -> (Cone b, fun () -> Schema_graph.remove g b));
  case "register" (fun g (a, _, _, _) ->
      ( Nothing,
        fun () ->
          ignore
            (Schema_graph.register_virtual g ~name:"V"
               (Klass.Select (a, Expr.bool true))
               []) ));
  case "install" (fun g (_, b, _, _) ->
      (All, fun () -> Schema_graph.install g (Schema_graph.find_exn g b)));
  case "relink_subs" (fun g _ -> (All, fun () -> Schema_graph.relink_subs g))

let suite =
  [
    Alcotest.test_case "expr evaluation" `Quick test_expr_eval;
    Alcotest.test_case "expr null semantics" `Quick test_expr_null_semantics;
    Alcotest.test_case "expr utilities" `Quick test_expr_utils;
    Alcotest.test_case "property identity" `Quick test_prop_identity;
    Alcotest.test_case "graph edges / cycles / root" `Quick test_graph_edges;
    Alcotest.test_case "graph class removal" `Quick test_graph_remove_class;
    Alcotest.test_case "graph topo order and paths" `Quick
      test_graph_topo_and_paths;
    Alcotest.test_case "graph copy isolation" `Quick test_graph_copy_isolation;
    Alcotest.test_case "full inheritance" `Quick test_inheritance_basic;
    Alcotest.test_case "override blocks propagation" `Quick
      test_inheritance_override;
    Alcotest.test_case "diamond is not a conflict" `Quick
      test_inheritance_diamond_no_conflict;
    Alcotest.test_case "real conflict needs renaming" `Quick
      test_inheritance_real_conflict;
    Alcotest.test_case "promoted definition has priority" `Quick
      test_promoted_priority;
    Alcotest.test_case "uppermost-in-view (view-relative local)" `Quick
      test_uppermost_in_view;
    Alcotest.test_case "type signatures" `Quick test_type_signature_stability;
    Alcotest.test_case "invariant: cycle" `Quick test_invariant_cycle;
    Alcotest.test_case "invariant: missing superclass" `Quick
      test_invariant_missing_superclass;
    Alcotest.test_case "invariant: missing subclass" `Quick
      test_invariant_missing_subclass;
    Alcotest.test_case "invariant: asymmetric edge (super side)" `Quick
      test_invariant_asymmetric_super_edge;
    Alcotest.test_case "invariant: asymmetric edge (sub side)" `Quick
      test_invariant_asymmetric_sub_edge;
    Alcotest.test_case "invariant: root with superclasses" `Quick
      test_invariant_root_with_supers;
    Alcotest.test_case "invariant: disconnected class" `Quick
      test_invariant_disconnected;
    Alcotest.test_case "invariant: not a descendant of the root" `Quick
      test_invariant_not_under_root;
    Alcotest.test_case "invariant: duplicate class name" `Quick
      test_invariant_duplicate_name;
    Alcotest.test_case "invariant: missing virtual source" `Quick
      test_invariant_missing_virtual_source;
    Alcotest.test_case "invariant: duplicate local property" `Quick
      test_invariant_duplicate_local_prop;
    Alcotest.test_case "invariant: clean graph reports nothing" `Quick
      test_invariant_clean_graph_has_no_problems;
    Alcotest.test_case "up-cone memos: each mutator drops its cone" `Quick
      test_memo_cone_per_mutator;
    Qcheck_det.to_alcotest prop_memo_matches_fresh;
  ]
