(* Tests for maintained indexes and the query engine. *)

open Tse_store
open Tse_schema
open Tse_db
open Tse_query

let check = Alcotest.check
let uni () = Tse_workload.University.build ()

let fixture () =
  let u = uni () in
  let idx = Indexes.create u.db in
  ignore (Tse_workload.University.populate u ~n:30);
  (u, idx)

let test_index_build_and_lookup () =
  let u, idx = fixture () in
  Indexes.ensure idx u.person "age";
  Alcotest.(check bool) "indexed" true (Indexes.indexed idx u.person "age");
  let some_age =
    match Database.get_prop u.db (List.hd (Database.extent_list u.db u.person)) "age" with
    | v -> v
  in
  let hits = Option.get (Indexes.lookup idx u.person "age" some_age) in
  Alcotest.(check bool) "non-empty lookup" true (not (Oid.Set.is_empty hits));
  (* all hits genuinely carry the value *)
  Oid.Set.iter
    (fun o ->
      Alcotest.(check bool) "hit has value" true
        (Value.equal (Database.get_prop u.db o "age") some_age))
    hits;
  Alcotest.(check bool) "overhead accounted" true (Indexes.overhead_bytes idx > 0)

let test_index_maintenance () =
  let u, idx = fixture () in
  Indexes.ensure idx u.person "age";
  let o = Database.create_object u.db u.person ~init:[ ("age", Value.Int 999) ] in
  (* creation indexed *)
  check Alcotest.int "new object indexed" 1
    (Oid.Set.cardinal (Option.get (Indexes.lookup idx u.person "age" (Value.Int 999))));
  (* update moves the entry *)
  Database.set_attr u.db o "age" (Value.Int 998);
  check Alcotest.int "old key empty" 0
    (Oid.Set.cardinal (Option.get (Indexes.lookup idx u.person "age" (Value.Int 999))));
  check Alcotest.int "new key hit" 1
    (Oid.Set.cardinal (Option.get (Indexes.lookup idx u.person "age" (Value.Int 998))));
  (* destruction unindexes *)
  Database.destroy_object u.db o;
  check Alcotest.int "destroyed unindexed" 0
    (Oid.Set.cardinal (Option.get (Indexes.lookup idx u.person "age" (Value.Int 998))))

let test_index_on_virtual_class () =
  (* indexes work on select classes too: membership changes maintain them *)
  let u, idx = fixture () in
  let adult =
    Tse_algebra.Ops.select u.db ~name:"Adult" ~src:u.person
      Expr.(attr "age" >= int 18)
  in
  Indexes.ensure idx adult "age";
  let o = Database.create_object u.db u.person ~init:[ ("age", Value.Int 50) ] in
  check Alcotest.int "adult indexed" 1
    (Oid.Set.cardinal (Option.get (Indexes.lookup idx adult "age" (Value.Int 50))));
  (* leaving the class unindexes, without destroying the object *)
  Database.set_attr u.db o "age" (Value.Int 10);
  check Alcotest.int "left the class" 0
    (Oid.Set.cardinal (Option.get (Indexes.lookup idx adult "age" (Value.Int 10))))

let test_engine_plans () =
  let u, idx = fixture () in
  Indexes.ensure idx u.person "age";
  let p1 = Engine.plan u.db idx u.person Expr.(attr "age" === int 30) in
  (match p1 with
  | Engine.Index_lookup { attr = "age"; kind = Engine.Hash; residual = false } -> ()
  | _ -> Alcotest.fail "expected pure index lookup");
  let p2 =
    Engine.plan u.db idx u.person
      Expr.(attr "age" === int 30 && (attr "name" <> str "x"))
  in
  (match p2 with
  | Engine.Index_lookup { attr = "age"; kind = Engine.Hash; residual = true } -> ()
  | _ -> Alcotest.fail "expected index + residual");
  let p3 = Engine.plan u.db idx u.person Expr.(attr "age" >= int 30) in
  (match p3 with
  | Engine.Extent_scan -> ()
  | _ -> Alcotest.fail "ranges scan");
  let p4 = Engine.plan u.db idx u.person Expr.(attr "name" === str "x") in
  match p4 with
  | Engine.Extent_scan -> ()
  | _ -> Alcotest.fail "unindexed attr scans"

let test_planner_prefers_selective_index () =
  (* two usable equality indexes: the planner must pick the one with the
     higher key cardinality, not merely the first conjunct in predicate
     order — first-pick and best-pick scan different candidate counts *)
  let u = uni () in
  let idx = Indexes.create u.db in
  for i = 0 to 11 do
    ignore
      (Database.create_object u.db u.person
         ~init:
           [
             ("name", Value.String (Printf.sprintf "p%d" i));
             ("age", Value.Int 30);
             ("ssn", Value.Int (7000 + i));
           ])
  done;
  Indexes.ensure idx u.person "age";
  Indexes.ensure idx u.person "ssn";
  check Alcotest.(option int) "age index has one key" (Some 1)
    (Indexes.key_cardinality idx u.person "age");
  check Alcotest.(option int) "ssn index has twelve keys" (Some 12)
    (Indexes.key_cardinality idx u.person "ssn");
  (* the low-cardinality conjunct comes FIRST in the predicate *)
  let pred = Expr.(attr "age" === int 30 && (attr "ssn" === int 7003)) in
  (match Engine.plan u.db idx u.person pred with
  | Engine.Index_lookup { attr = "ssn"; kind = Engine.Hash; residual = true } -> ()
  | p ->
    Alcotest.failf "expected ssn lookup + residual, got %a" Engine.pp_plan p);
  (* the choice matters: the rejected first conjunct enumerates the whole
     population, the selected one touches a single bucket *)
  let candidates a v =
    Oid.Set.cardinal (Option.get (Indexes.lookup idx u.person a v))
  in
  check Alcotest.int "first-pick candidates" 12 (candidates "age" (Value.Int 30));
  check Alcotest.int "best-pick candidates" 1
    (candidates "ssn" (Value.Int 7003));
  let hits = Engine.select u.db idx u.person pred in
  check Alcotest.int "one match" 1 (Oid.Set.cardinal hits)

let test_engine_results_agree () =
  let u, idx = fixture () in
  Indexes.ensure idx u.person "age";
  let preds =
    Expr.
      [
        attr "age" === int 30;
        attr "age" === int 30 && (attr "ssn" > int 10010);
        attr "age" >= int 40;
        bool false;
      ]
  in
  List.iter
    (fun pred ->
      let indexed = Engine.select u.db idx u.person pred in
      (* ground truth: a plain scan *)
      let scanned =
        Oid.Set.filter (fun o -> Database.holds u.db o pred)
          (Database.extent u.db u.person)
      in
      Alcotest.(check bool)
        (Format.asprintf "results agree for %a" Expr.pp pred)
        true
        (Oid.Set.equal indexed scanned))
    preds

let test_engine_after_evolution () =
  (* the engine keeps working on the primed classes a schema change makes *)
  let u, idx = fixture () in
  let tsem = Tse_core.Tsem.of_database u.db in
  ignore (Tse_core.Tsem.define_view_by_names tsem ~name:"VS" [ "Person"; "Student" ]);
  let v1 =
    Tse_core.Tsem.evolve tsem ~view:"VS"
      (Tse_core.Change.Add_attribute
         { cls = "Student"; def = Tse_core.Change.attr "credits" Value.TInt })
  in
  let student' = Tse_views.View_schema.cid_of_exn v1 "Student" in
  Indexes.ensure idx student' "credits";
  let o =
    Tse_update.Generic.create u.db student'
      ~init:[ ("credits", Value.Int 12); ("age", Value.Int 20) ]
  in
  let hits = Engine.select u.db idx student' Expr.(attr "credits" === int 12) in
  Alcotest.(check bool) "indexed select on evolved class" true
    (Oid.Set.mem o hits);
  Alcotest.(check (list string)) "consistent" [] (Database.check u.db)

(* --- range indexes ------------------------------------------------------- *)

let test_range_index_lookup_and_maintenance () =
  let u, idx = fixture () in
  Indexes.ensure ~kind:Indexes.Ordered idx u.person "age";
  check Alcotest.(option (of_pp Fmt.nop)) "ordered kind"
    (Some Indexes.Ordered)
    (Indexes.kind_of idx u.person "age");
  let range ~lo ~hi = Option.get (Indexes.range_lookup idx u.person "age" ~lo ~hi) in
  let scan_range lo_incl hi_excl =
    Oid.Set.filter
      (fun o ->
        match Database.get_prop u.db o "age" with
        | Value.Int a -> a >= lo_incl && a < hi_excl
        | _ -> false)
      (Database.extent u.db u.person)
  in
  (* boxed window [20, 40) *)
  let boxed =
    range ~lo:(Some (Value.Int 20, true)) ~hi:(Some (Value.Int 40, false))
  in
  Alcotest.(check bool) "boxed window" true
    (Oid.Set.equal boxed (scan_range 20 40));
  (* one-sided: everything >= 40 *)
  let above = range ~lo:(Some (Value.Int 40, true)) ~hi:None in
  Alcotest.(check bool) "open upper side" true
    (Oid.Set.equal above (scan_range 40 max_int));
  (* equality probes still answered by the ordered backing *)
  (match Indexes.lookup idx u.person "age" (Value.Int 30) with
  | Some hits ->
    Oid.Set.iter
      (fun o ->
        Alcotest.(check bool) "eq probe exact" true
          (Value.equal (Database.get_prop u.db o "age") (Value.Int 30)))
      hits
  | None -> Alcotest.fail "ordered index must answer equality probes");
  (* maintenance: writes move entries between keys *)
  let o = Database.create_object u.db u.person ~init:[ ("age", Value.Int 77) ] in
  let at v =
    Option.get
      (Indexes.range_lookup idx u.person "age" ~lo:(Some (Value.Int v, true))
         ~hi:(Some (Value.Int v, true)))
  in
  Alcotest.(check bool) "new object in range" true (Oid.Set.mem o (at 77));
  Database.set_attr u.db o "age" (Value.Int 78);
  Alcotest.(check bool) "moved off old key" false (Oid.Set.mem o (at 77));
  Alcotest.(check bool) "moved to new key" true (Oid.Set.mem o (at 78));
  Database.destroy_object u.db o;
  Alcotest.(check bool) "destroyed unindexed" false (Oid.Set.mem o (at 78))

let test_range_plan_and_explain () =
  let u, idx = fixture () in
  Indexes.ensure ~kind:Indexes.Ordered idx u.person "age";
  let pred = Expr.(attr "age" >= int 25 && (attr "age" < int 35)) in
  let ex, hits = Engine.select_explain u.db idx u.person pred in
  (match ex.Engine.ex_plan with
  | Engine.Range_scan { attr = "age"; _ } -> ()
  | p -> Alcotest.failf "expected range scan, got %a" Engine.pp_plan p);
  check Alcotest.(option string) "chosen index" (Some "age")
    ex.Engine.chosen_index;
  Alcotest.(check bool) "conjunct order reported" true
    (List.length ex.Engine.conjunct_order = 2);
  let scanned =
    Oid.Set.filter (fun o -> Database.holds u.db o pred)
      (Database.extent u.db u.person)
  in
  Alcotest.(check bool) "range results == scan results" true
    (Oid.Set.equal hits scanned);
  (* candidates for the boxed window stay below the full extent *)
  Alcotest.(check bool) "index pruned the scan" true
    (ex.Engine.rows_scanned
    < Oid.Set.cardinal (Database.extent u.db u.person));
  (* second run hits the plan cache *)
  let ex2 = Engine.explain u.db idx u.person pred in
  Alcotest.(check bool) "first run compiled" false ex.Engine.plan_cache_hit;
  Alcotest.(check bool) "second run cached" true ex2.Engine.plan_cache_hit

(* --- planner units: sargable extraction and index-vs-scan ---------------- *)

let test_sarg_extraction () =
  let module C = Tse_query.Compile in
  (match C.sarg_of Expr.(attr "age" === int 30) with
  | Some (C.Sarg_eq ("age", Value.Int 30)) -> ()
  | _ -> Alcotest.fail "eq sarg");
  (match C.sarg_of Expr.(attr "age" >= int 21) with
  | Some (C.Sarg_cmp ("age", Expr.Ge, Value.Int 21)) -> ()
  | _ -> Alcotest.fail "range sarg");
  (* constant on the left flips the comparison onto the attribute *)
  (match C.sarg_of Expr.(int 21 < attr "age") with
  | Some (C.Sarg_cmp ("age", Expr.Gt, Value.Int 21)) -> ()
  | _ -> Alcotest.fail "flipped range sarg");
  (match C.sarg_of Expr.(int 30 === attr "age") with
  | Some (C.Sarg_eq ("age", Value.Int 30)) -> ()
  | _ -> Alcotest.fail "flipped eq sarg");
  (* not sargable: attr-attr, arithmetic, inequality *)
  Alcotest.(check bool) "attr-attr not sargable" true
    (C.sarg_of Expr.(attr "age" < attr "ssn") = None);
  Alcotest.(check bool) "arith not sargable" true
    (C.sarg_of Expr.(Arith (Add, attr "age", int 1) === int 30) = None);
  Alcotest.(check bool) "Ne not sargable" true
    (C.sarg_of Expr.(attr "age" <> int 30) = None)

let test_index_vs_scan_choice () =
  (* an ancestor index whose estimated bucket exceeds the queried extent
     must lose to the extent scan *)
  let u = uni () in
  let idx = Indexes.create u.db in
  for i = 0 to 49 do
    ignore
      (Database.create_object u.db u.person
         ~init:[ ("name", Value.String (Printf.sprintf "p%d" i)); ("age", Value.Int 30) ])
  done;
  (* a tiny derived class: 5 members *)
  let five =
    Tse_algebra.Ops.select u.db ~name:"FiveNames" ~src:u.person
      Expr.(attr "name" < str "p13")
  in
  Alcotest.(check int) "five members" 5 (Oid.Set.cardinal (Database.extent u.db five));
  Indexes.ensure idx u.person "age";
  (* every Person has age 30: the pushed-down bucket estimate (50) dwarfs
     the 5-object extent *)
  (match Engine.plan u.db idx five Expr.(attr "age" === int 30) with
  | Engine.Extent_scan -> ()
  | p -> Alcotest.failf "expected extent scan, got %a" Engine.pp_plan p);
  (* but a selective ancestor index wins *)
  Indexes.ensure idx u.person "name";
  (match Engine.plan u.db idx five Expr.(attr "name" === str "p7") with
  | Engine.Index_lookup { attr = "name"; _ } -> ()
  | p -> Alcotest.failf "expected name lookup, got %a" Engine.pp_plan p)

let test_pushdown_through_selects () =
  let u, idx = fixture () in
  let adult =
    Tse_algebra.Ops.select u.db ~name:"Adult" ~src:u.person
      Expr.(attr "age" >= int 18)
  in
  Indexes.ensure idx u.person "ssn";
  let some_adult = Oid.Set.min_elt (Database.extent u.db adult) in
  let ssn = Database.get_prop u.db some_adult "ssn" in
  let pred = Expr.(attr "ssn" === Expr.Const ssn) in
  let ex, hits = Engine.select_explain u.db idx adult pred in
  (match ex.Engine.ex_plan with
  | Engine.Index_lookup { attr = "ssn"; _ } -> ()
  | p -> Alcotest.failf "expected pushed-down ssn lookup, got %a" Engine.pp_plan p);
  check Alcotest.int "pushed one derivation level" 1 ex.Engine.pushdown_depth;
  let scanned =
    Oid.Set.filter (fun o -> Database.holds u.db o pred)
      (Database.extent u.db adult)
  in
  Alcotest.(check bool) "pushdown results == scan results" true
    (Oid.Set.equal hits scanned);
  Alcotest.(check bool) "found the adult" true (Oid.Set.mem some_adult hits)

(* --- plan cache invalidation --------------------------------------------- *)

let test_plan_cache_invalidation_on_evolution () =
  let u, idx = fixture () in
  let pred = Expr.(attr "age" >= int 21) in
  let epoch0 = Schema_graph.version (Database.graph u.db) in
  let ex1 = Engine.explain u.db idx u.person pred in
  let ex2 = Engine.explain u.db idx u.person pred in
  Alcotest.(check bool) "cold: miss" false ex1.Engine.plan_cache_hit;
  Alcotest.(check bool) "warm: hit" true ex2.Engine.plan_cache_hit;
  let before = Engine.select u.db idx u.person pred in
  (* evolve the predicate's class mid-stream *)
  let tsem = Tse_core.Tsem.of_database u.db in
  ignore (Tse_core.Tsem.define_view_by_names tsem ~name:"VQ" [ "Person" ]);
  ignore
    (Tse_core.Tsem.evolve tsem ~view:"VQ"
       (Tse_core.Change.Add_attribute
          { cls = "Person"; def = Tse_core.Change.attr "badge" Value.TInt }));
  Alcotest.(check bool) "schema state moved" true
    (Schema_graph.version (Database.graph u.db) > epoch0);
  (* the stale plan must not be reused... *)
  let ex3 = Engine.explain u.db idx u.person pred in
  Alcotest.(check bool) "after evolve: recompiled" false
    ex3.Engine.plan_cache_hit;
  (* ...and the recompiled plan still answers correctly *)
  let after = Engine.select u.db idx u.person pred in
  Alcotest.(check bool) "same members satisfy the predicate" true
    (Oid.Set.equal before after);
  let oracle =
    Oid.Set.filter (fun o -> Database.holds u.db o pred)
      (Database.extent u.db u.person)
  in
  Alcotest.(check bool) "matches the interpreted oracle" true
    (Oid.Set.equal after oracle)

(* --- count without materialization --------------------------------------- *)

let test_count_agrees_with_select () =
  let u, idx = fixture () in
  Indexes.ensure idx u.person "age";
  Indexes.ensure ~kind:Indexes.Ordered idx u.person "ssn";
  let preds =
    Expr.
      [
        attr "age" === int 30; (* hash probe *)
        attr "ssn" >= int 10005 && (attr "ssn" < int 10020); (* range scan *)
        attr "age" >= int 40; (* extent scan *)
        bool false;
      ]
  in
  List.iter
    (fun pred ->
      check Alcotest.int
        (Format.asprintf "count == |select| for %a" Expr.pp pred)
        (Oid.Set.cardinal (Engine.select u.db idx u.person pred))
        (Engine.count u.db idx u.person pred))
    preds

(* --- compiled == interpreted (property) ---------------------------------- *)

let gen_pred st sch cls =
  let module RS = Tse_workload.Random_schema in
  let attr_leaf () =
    let name =
      if Random.State.int st 8 = 0 then "ghost_attr"
      else
        match RS.random_attr st sch cls with
        | Some a -> a
        | None -> "ghost_attr"
    in
    let const =
      match Random.State.int st 4 with
      | 0 -> Expr.int (Random.State.int st 50)
      | 1 -> Expr.str "x"
      | 2 -> Expr.bool (Random.State.bool st)
      | _ -> Expr.Const Value.Null
    in
    let a = Expr.attr name in
    match Random.State.int st 6 with
    | 0 -> Expr.(a === const)
    | 1 -> Expr.(a < const)
    | 2 -> Expr.(a >= const)
    | 3 -> Expr.(a <> const)
    | 4 -> Expr.Is_null a
    | _ -> Expr.(Arith (Add, a, int 1) > const)
  in
  let class_leaf () =
    let name =
      match RS.class_names sch with
      | [] -> "Ghost"
      | names -> List.nth names (Random.State.int st (List.length names))
    in
    Expr.In_class name
  in
  let rec go depth =
    if depth = 0 then if Random.State.int st 5 = 0 then class_leaf () else attr_leaf ()
    else
      match Random.State.int st 5 with
      | 0 -> Expr.(go (depth - 1) && go (depth - 1))
      | 1 -> Expr.(go (depth - 1) || go (depth - 1))
      | 2 -> Expr.Not (go (depth - 1))
      | 3 -> Expr.If (go (depth - 1), go (depth - 1), go (depth - 1))
      | _ -> go 0
  in
  go (1 + Random.State.int st 3)

let prop_compiled_matches_interpreted =
  QCheck.Test.make ~name:"compiled predicate == interpreted oracle" ~count:40
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 10_000))
    (fun seed ->
      let module RS = Tse_workload.Random_schema in
      let st = Random.State.make [| seed |] in
      let sch =
        RS.generate ~seed ~classes:6 ~attrs_per_class:3 ~objects:40 ~virtuals:3
          ()
      in
      let db = sch.RS.db in
      List.iter
        (fun _ ->
          let cls = RS.random_class st sch in
          let pred = gen_pred st sch cls in
          let compiled = Database.compile_pred db pred in
          Oid.Set.iter
            (fun o ->
              let interpreted = Database.holds db o pred in
              if compiled o <> interpreted then
                QCheck.Test.fail_reportf
                  "compiled %b <> interpreted %b for %a on %s" (compiled o)
                  interpreted Expr.pp pred (Oid.to_string o))
            (Database.extent db cls))
        (List.init 8 Fun.id);
      true)

let suite =
  [
    Alcotest.test_case "index build + lookup" `Quick test_index_build_and_lookup;
    Alcotest.test_case "index maintenance on events" `Quick
      test_index_maintenance;
    Alcotest.test_case "index on a virtual class" `Quick
      test_index_on_virtual_class;
    Alcotest.test_case "planner decisions" `Quick test_engine_plans;
    Alcotest.test_case "planner prefers the selective index" `Quick
      test_planner_prefers_selective_index;
    Alcotest.test_case "indexed results == scan results" `Quick
      test_engine_results_agree;
    Alcotest.test_case "engine across schema evolution" `Quick
      test_engine_after_evolution;
    Alcotest.test_case "range index: lookups + maintenance" `Quick
      test_range_index_lookup_and_maintenance;
    Alcotest.test_case "range plan + explain" `Quick test_range_plan_and_explain;
    Alcotest.test_case "sargable conjunct extraction" `Quick test_sarg_extraction;
    Alcotest.test_case "index-vs-scan choice" `Quick test_index_vs_scan_choice;
    Alcotest.test_case "pushdown through select derivation" `Quick
      test_pushdown_through_selects;
    Alcotest.test_case "plan cache invalidated by evolution" `Quick
      test_plan_cache_invalidation_on_evolution;
    Alcotest.test_case "count == select cardinality" `Quick
      test_count_agrees_with_select;
    QCheck_alcotest.to_alcotest prop_compiled_matches_interpreted;
  ]
