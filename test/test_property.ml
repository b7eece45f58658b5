(* Property-based tests: randomized schemas, populations and evolution
   traces, checked against the consistency oracle, the direct-modification
   oracle (Proposition A), view independence (Proposition B) and
   updatability (Theorem 1). *)

open Tse_store
open Tse_schema
open Tse_db
open Tse_core
open Tse_workload

(* -------------------------------------------------------------- *)
(* Generators                                                      *)
(* -------------------------------------------------------------- *)

let seed_arb = QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 10_000)

(* A random primitive change that is *plausible* for the given schema —
   it may still be rejected; rejection must then agree across oracles. *)
let random_change rng (rs : Random_schema.t) =
  let g = Database.graph rs.db in
  let cls cid = Schema_graph.name_of g cid in
  let c1 = Random_schema.random_class rng rs in
  let c2 = Random_schema.random_class rng rs in
  match Random.State.int rng 8 with
  | 0 ->
    Change.Add_attribute
      {
        cls = cls c1;
        def = Change.attr (Printf.sprintf "n%d" (Random.State.int rng 1000)) Value.TInt;
      }
  | 1 -> begin
    match Random_schema.random_attr rng rs c1 with
    | Some a -> Change.Delete_attribute { cls = cls c1; attr_name = a }
    | None -> Change.Delete_class { cls = cls c1 }
  end
  | 2 ->
    Change.Add_method
      {
        cls = cls c1;
        method_name = Printf.sprintf "m%d" (Random.State.int rng 1000);
        body = Expr.int 1;
      }
  | 3 -> Change.Add_edge { sup = cls c1; sub = cls c2 }
  | 4 -> Change.Delete_edge { sup = cls c1; sub = cls c2; connected_to = None }
  | 5 ->
    Change.Add_class
      {
        cls = Printf.sprintf "N%d" (Random.State.int rng 1000);
        connected_to = Some (cls c1);
      }
  | 6 -> Change.Delete_class { cls = cls c1 }
  | _ ->
    Change.Insert_class
      {
        cls = Printf.sprintf "I%d" (Random.State.int rng 1000);
        sup = cls c1;
        sub = cls c2;
      }

(* -------------------------------------------------------------- *)
(* Properties                                                      *)
(* -------------------------------------------------------------- *)

let prop_random_schema_consistent =
  QCheck.Test.make ~name:"random schema + population is consistent" ~count:25
    seed_arb (fun seed ->
      let rs = Random_schema.generate ~seed ~classes:12 ~objects:30 () in
      Database.check rs.db = [])

let prop_tse_equals_direct =
  QCheck.Test.make
    ~name:"TSE translation == direct modification (Proposition A, random)"
    ~count:40 seed_arb (fun seed ->
      let rng = Random.State.make [| seed; 17 |] in
      let mk () = Random_schema.generate ~seed ~classes:8 ~objects:16 () in
      let rs1 = mk () and rs2 = mk () in
      let names = Random_schema.class_names rs1 in
      (* a random subset of classes forms the view (always at least 2) *)
      let view_names =
        List.filteri (fun i _ -> i < 2 || Random.State.bool rng) names
      in
      let mk_view (rs : Random_schema.t) =
        let g = Database.graph rs.db in
        Tse_views.View_schema.make ~name:"V" ~version:0 g
          (List.map
             (fun n -> (Schema_graph.find_by_name_exn g n).Klass.cid)
             view_names)
      in
      let v1 = mk_view rs1 and v2 = mk_view rs2 in
      let change = random_change rng rs1 in
      let r1 =
        match Translator.apply rs1.db v1 change with
        | v -> Ok v
        | exception Change.Rejected m -> Error m
      in
      let r2 =
        match Direct.apply rs2.db v2 change with
        | v -> Ok v
        | exception Change.Rejected m -> Error m
      in
      let oracle_limitation m =
        (* TSE can delete a view-relative-local attribute by hiding it;
           the destructive oracle cannot express that and says so *)
        String.length m >= 24 && String.sub m 0 24 = "direct oracle limitation"
      in
      match r1, r2 with
      | Error _, Error _ -> true
      | Ok _, Error m when oracle_limitation m -> true
      | Ok nv1, Ok nv2 ->
        let diff = Verify.diff_views (rs1.db, nv1) (rs2.db, nv2) in
        if diff <> [] then
          QCheck.Test.fail_reportf "S'' <> S' for %s:@.%s"
            (Change.to_string change)
            (String.concat "\n" diff)
        else Database.check rs1.db = []
      | Ok _, Error m ->
        QCheck.Test.fail_reportf "TSE accepted, direct rejected (%s): %s"
          (Change.to_string change) m
      | Error m, Ok _ ->
        QCheck.Test.fail_reportf "TSE rejected (%s), direct accepted: %s"
          (Change.to_string change) m)

let prop_view_independence =
  QCheck.Test.make
    ~name:"other views keep their fingerprints (Proposition B, random)"
    ~count:25 seed_arb (fun seed ->
      let rng = Random.State.make [| seed; 23 |] in
      let rs = Random_schema.generate ~seed ~classes:10 ~objects:20 () in
      let tsem = Tsem.of_database rs.db in
      let names = Random_schema.class_names rs in
      let half = List.filteri (fun i _ -> i mod 2 = 0) names in
      ignore (Tsem.define_view_by_names tsem ~name:"MINE" names);
      ignore (Tsem.define_view_by_names tsem ~name:"OTHER" half);
      let before = Verify.view_fingerprint rs.db (Tsem.current tsem "OTHER") in
      let applied = ref 0 in
      for _ = 1 to 5 do
        match Tsem.evolve tsem ~view:"MINE" (random_change rng rs) with
        | _ -> incr applied
        | exception Change.Rejected _ -> ()
      done;
      let after = Verify.view_fingerprint rs.db (Tsem.current tsem "OTHER") in
      String.equal before after && Database.check rs.db = [])

let prop_updatability_preserved =
  QCheck.Test.make
    ~name:"every evolved view stays updatable (Theorem 1, random)" ~count:25
    seed_arb (fun seed ->
      let rng = Random.State.make [| seed; 31 |] in
      let rs = Random_schema.generate ~seed ~classes:8 ~objects:10 () in
      let tsem = Tsem.of_database rs.db in
      ignore
        (Tsem.define_view_by_names tsem ~name:"V" (Random_schema.class_names rs));
      for _ = 1 to 6 do
        try ignore (Tsem.evolve tsem ~view:"V" (random_change rng rs))
        with Change.Rejected _ -> ()
      done;
      Verify.all_updatable rs.db (Tsem.current tsem "V"))

let prop_history_monotone =
  QCheck.Test.make ~name:"history keeps every version readable" ~count:20
    seed_arb (fun seed ->
      let rng = Random.State.make [| seed; 41 |] in
      let rs = Random_schema.generate ~seed ~classes:6 ~objects:6 () in
      let tsem = Tsem.of_database rs.db in
      ignore
        (Tsem.define_view_by_names tsem ~name:"V" (Random_schema.class_names rs));
      let fingerprints = ref [] in
      let record () =
        let v = Tsem.current tsem "V" in
        fingerprints :=
          (v.Tse_views.View_schema.version, Verify.view_fingerprint rs.db v)
          :: !fingerprints
      in
      record ();
      for _ = 1 to 4 do
        (try ignore (Tsem.evolve tsem ~view:"V" (random_change rng rs))
         with Change.Rejected _ -> ());
        record ()
      done;
      (* every snapshot of a version taken when it was current must still
         hold now: old views are never mutated *)
      List.for_all
        (fun (version, fp) ->
          match
            Tse_views.History.version (Tsem.history tsem) "V" version
          with
          | Some v -> String.equal fp (Verify.view_fingerprint rs.db v)
          | None -> false)
        !fingerprints)

let prop_trace_calibration =
  QCheck.Test.make ~name:"evolution traces match the cited statistics"
    ~count:10 seed_arb (fun seed ->
      let initial_classes = 10 and initial_attrs = 30 in
      let trace =
        Evolution_trace.generate ~seed ~months:18 ~initial_classes
          ~initial_attrs
      in
      let s = Evolution_trace.summarize trace in
      let cg, ag, ac = Evolution_trace.ratios s ~initial_classes ~initial_attrs in
      (* within 15% of the cited 139% / 274% / 59% *)
      Float.abs (cg -. 1.39) < 0.2
      && Float.abs (ag -. 2.74) < 0.4
      && Float.abs (ac -. 0.59) < 0.15)

let prop_trace_replay_consistent =
  QCheck.Test.make ~name:"replaying a trace keeps the database consistent"
    ~count:6 seed_arb (fun seed ->
      let rs = Random_schema.generate ~seed ~classes:6 ~objects:12 () in
      let tsem = Tsem.of_database rs.db in
      ignore
        (Tsem.define_view_by_names tsem ~name:"V" (Random_schema.class_names rs));
      let trace =
        Evolution_trace.generate ~seed ~months:6 ~initial_classes:6
          ~initial_attrs:18
      in
      let applied = ref 0 and rejected = ref 0 in
      Evolution_trace.replay tsem ~view:"V" trace ~applied ~rejected;
      !applied > 0 && Database.check rs.db = [])

(* The two Section 4 object models must agree on every observable
   membership fact under arbitrary classification scripts. *)
let prop_models_agree =
  QCheck.Test.make ~name:"slicing == intersection on random scripts" ~count:50
    seed_arb (fun seed ->
      let rng = Random.State.make [| seed; 99 |] in
      let run (type m) (module M : Tse_objmodel.Model_sig.S with type t = m) =
        let cars = Cars.build () in
        let stats = Tse_store.Stats.create () in
        let m = M.create ~graph:cars.graph ~heap:cars.heap ~stats in
        let classes = [| cars.car; cars.jeep; cars.imported |] in
        let local = Random.State.copy rng in
        let objs =
          Array.init 5 (fun _ ->
              M.create_object m classes.(Random.State.int local 3))
        in
        (* a random script of add/remove/set operations *)
        for _ = 1 to 30 do
          let o = objs.(Random.State.int local 5) in
          let c = classes.(Random.State.int local 3) in
          match Random.State.int local 3 with
          | 0 -> M.add_to_class m o c
          | 1 ->
            if not (Tse_store.Oid.equal c cars.car) then M.remove_from_class m o c
          | _ -> (
            try M.set_attr m o "model" (Value.String "x")
            with Expr.Unknown_property _ -> ())
        done;
        (* observable state: the membership matrix *)
        Array.to_list objs
        |> List.concat_map (fun o ->
               List.map (fun c -> M.is_member m o c) (Array.to_list classes))
      in
      run (module Tse_objmodel.Slicing) = run (module Tse_objmodel.Intersection))

let prop_catalog_roundtrip =
  QCheck.Test.make ~name:"catalog roundtrips randomly evolved databases"
    ~count:10 seed_arb (fun seed ->
      let rng = Random.State.make [| seed; 77 |] in
      let rs = Random_schema.generate ~seed ~classes:8 ~objects:16 () in
      let tsem = Tsem.of_database rs.db in
      ignore
        (Tsem.define_view_by_names tsem ~name:"V" (Random_schema.class_names rs));
      for _ = 1 to 4 do
        try ignore (Tsem.evolve tsem ~view:"V" (random_change rng rs))
        with Change.Rejected _ -> ()
      done;
      let text = Tse_views.Catalog.to_string ~history:(Tsem.history tsem) rs.db in
      let db', history' = Tse_views.Catalog.of_string text in
      let fp db v = Verify.view_fingerprint db v in
      let ok_views =
        List.for_all
          (fun name ->
            List.for_all
              (fun (v : Tse_views.View_schema.t) ->
                match
                  Tse_views.History.version history' name
                    v.Tse_views.View_schema.version
                with
                | Some v' -> String.equal (fp rs.db v) (fp db' v')
                | None -> false)
              (Tse_views.History.versions (Tsem.history tsem) name))
          (Tse_views.History.view_names (Tsem.history tsem))
      in
      ok_views && Database.check db' = [])

(* Every (membership, extent) fact of every object for every class, both
   in oid order. Identical seeds and identical op streams allocate
   identical oids, so the facts of twin databases compare directly. *)
let membership_facts db =
  let cids = List.sort Oid.compare (Schema_graph.cids (Database.graph db)) in
  List.map
    (fun o ->
      List.map
        (fun c -> (Database.is_member db o c, Oid.Set.mem o (Database.extent db c)))
        cids)
    (List.sort Oid.compare (Database.objects db))

(* Every object's reading of each named property, errors as markers. *)
let prop_reads db names =
  List.map
    (fun o ->
      List.map
        (fun a ->
          match Database.get_prop db o a with
          | v -> Fmt.str "%a" Value.pp v
          | exception Expr.Unknown_property _ -> "?"
          | exception Expr.Type_error _ -> "!")
        names)
    (List.sort Oid.compare (Database.objects db))

(* The incremental reclassification engine must be observationally equal
   to the full-fixpoint oracle: twin databases built from one seed — one
   per mode — are driven through the same random trace of attribute
   writes, base-membership changes and mid-trace view derivations, then
   compared fact by fact. *)
let prop_incremental_equals_oracle =
  QCheck.Test.make
    ~name:"incremental reclassification == full-fixpoint oracle" ~count:30
    seed_arb (fun seed ->
      let mk full =
        Random_schema.generate ~seed ~classes:8 ~objects:16 ~virtuals:6
          ~full_reclassify:full ()
      in
      let inc = mk false and ora = mk true in
      if not (Database.full_reclassify ora.db && not (Database.full_reclassify inc.db))
      then QCheck.Test.fail_report "modes not set as requested";
      let rng = Random.State.make [| seed; 55 |] in
      let attr_pool = Array.init 24 (fun i -> Printf.sprintf "a%d" (i + 1)) in
      let objs = Array.of_list (List.sort Oid.compare (Database.objects inc.db)) in
      if Array.length objs = 0 then true
      else begin
        (* the op list is drawn once, then replayed on both twins *)
        let steps =
          List.init 60 (fun i ->
              let o = Random.State.int rng (Array.length objs) in
              match Random.State.int rng 6 with
              | 0 | 1 | 2 ->
                let a = attr_pool.(Random.State.int rng (Array.length attr_pool)) in
                let v =
                  match Random.State.int rng 3 with
                  | 0 -> Value.Int (Random.State.int rng 100)
                  | 1 -> Value.Bool (Random.State.bool rng)
                  | _ -> Value.String (Printf.sprintf "v%d" (Random.State.int rng 8))
                in
                `Write (o, a, v)
              | 3 -> `Add_base (o, Random.State.int rng 8)
              | 4 -> `Remove_base (o, Random.State.int rng 8)
              | _ ->
                `Derive (i, Random.State.int rng 8, Random.State.int rng 100))
        in
        let apply (rs : Random_schema.t) step =
          let db = rs.db in
          let class_at i = List.nth rs.classes (i mod List.length rs.classes) in
          match step with
          | `Write (o, a, v) -> begin
            try Database.set_attr db objs.(o) a v
            with Expr.Unknown_property _ | Expr.Type_error _ -> ()
          end
          | `Add_base (o, c) -> Database.add_base_membership db objs.(o) (class_at c)
          | `Remove_base (o, c) ->
            Database.remove_base_membership db objs.(o) (class_at c)
          | `Derive (i, c, bound) -> begin
            let src = class_at c in
            match
              Random_schema.random_attr (Random.State.make [| seed; i |]) rs src
            with
            | None -> ()
            | Some a -> (
              try
                ignore
                  (Tse_algebra.Ops.select db ~name:(Printf.sprintf "W%d" i)
                     ~src Expr.(attr a >= int bound))
              with Tse_algebra.Ops.Error _ -> ())
          end
        in
        List.iter (fun s -> apply inc s; apply ora s) steps;
        let props (rs : Random_schema.t) = prop_reads rs.db (Array.to_list attr_pool) in
        if membership_facts inc.db <> membership_facts ora.db then
          QCheck.Test.fail_report "membership/extent facts diverged"
        else if props inc <> props ora then
          QCheck.Test.fail_report "property reads diverged"
        else
          match Database.check inc.db, Database.check ora.db with
          | [], [] -> true
          | p, p' ->
            QCheck.Test.fail_reportf "inconsistent:@.%s"
              (String.concat "\n" (p @ p'))
      end)

(* Class admission must be observationally equal to running the full
   fixpoint over every candidate: twin databases from one seed, one per
   mode, are driven through the same random chain of view evolutions
   (whose translations admit Select, Refine, Refine_from, Hide, Union and
   Difference classes), and compared fact by fact after every step:
   memberships, extents and property reads. Both twins must be
   consistent, and since every edge a translation adds holds in the
   extents, a full fixpoint over every object of the incremental twin
   must move nothing. *)
let prop_admission_equals_oracle =
  QCheck.Test.make
    ~name:"class admission == full-fixpoint oracle over evolutions" ~count:25
    seed_arb (fun seed ->
      let mk full =
        let rs =
          Random_schema.generate ~seed ~classes:7 ~objects:16 ~virtuals:4
            ~full_reclassify:full ()
        in
        let tsem = Tsem.of_database rs.db in
        ignore
          (Tsem.define_view_by_names tsem ~name:"V" (Random_schema.class_names rs));
        (rs, tsem)
      in
      let ((inc : Random_schema.t), inc_tsem) = mk false in
      let ((ora : Random_schema.t), ora_tsem) = mk true in
      let rng = Random.State.make [| seed; 91 |] in
      let names () =
        let v = Tsem.current inc_tsem "V" in
        List.filter_map (Tse_views.View_schema.local_name v)
          (Tse_views.View_schema.classes v)
        |> List.sort String.compare |> Array.of_list
      in
      let pick a = a.(Random.State.int rng (Array.length a)) in
      let fresh prefix = Printf.sprintf "%s%d" prefix (Random.State.int rng 10_000) in
      (* a change drawn from the incremental twin's view; the twins' graphs
         are identical, so it means the same on both *)
      let random_change () =
        let ns = names () in
        let c1 = pick ns and c2 = pick ns in
        let attr_of c =
          let v = Tsem.current inc_tsem "V" in
          Random_schema.random_attr rng inc (Tse_views.View_schema.cid_of_exn v c)
        in
        match Random.State.int rng 7 with
        | 0 ->
          Change.Add_attribute { cls = c1; def = Change.attr (fresh "n") Value.TInt }
        | 1 -> (
          match attr_of c1 with
          | Some a -> Change.Delete_attribute { cls = c1; attr_name = a }
          | None -> Change.Add_method { cls = c1; method_name = fresh "m"; body = Expr.int 1 })
        | 2 -> Change.Add_edge { sup = c1; sub = c2 }
        | 3 ->
          (* reattach to a view superclass of [c1] half the time *)
          let connected_to =
            let v = Tsem.current inc_tsem "V" in
            let g = Database.graph inc.db in
            let sup = Tse_views.View_schema.cid_of_exn v c1 in
            match
              List.filter
                (fun c ->
                  Schema_graph.is_strict_ancestor g
                    ~anc:(Tse_views.View_schema.cid_of_exn v c) ~desc:sup)
                (Array.to_list ns)
            with
            | [] -> None
            | ups -> if Random.State.bool rng then Some (pick (Array.of_list ups)) else None
          in
          Change.Delete_edge { sup = c1; sub = c2; connected_to }
        | 4 ->
          let predicate =
            match attr_of c1 with
            | Some a -> Expr.(attr a >= int (Random.State.int rng 100))
            | None -> Expr.bool true
          in
          Change.Partition_class
            { cls = c1; predicate; into_true = fresh "PT"; into_false = fresh "PF" }
        | 5 -> Change.Insert_class { cls = fresh "I"; sup = c1; sub = c2 }
        | _ -> Change.Coalesce_classes { a = c1; b = c2; as_name = fresh "U" }
      in
      (* membership moves the full fixpoint still finds after a step *)
      let moved = ref 0 in
      Database.add_listener inc.db (function
        | Database.Membership_delta _ -> incr moved
        | _ -> ());
      let accepts tsem change =
        match Tsem.evolve tsem ~view:"V" change with
        | _ -> true
        | exception Change.Rejected _ -> false
      in
      let props (rs : Random_schema.t) =
        let g = Database.graph rs.db in
        List.concat_map (Type_info.stored_attrs g) (Schema_graph.cids g)
        |> List.map (fun (p : Prop.t) -> p.name)
        |> List.sort_uniq String.compare
        |> prop_reads rs.db
      in
      let rec go i =
        if i = 0 then true
        else begin
          let change = random_change () in
          let step = Change.to_string change in
          if accepts inc_tsem change <> accepts ora_tsem change then
            QCheck.Test.fail_reportf "twins disagree on accepting %s" step
          else if membership_facts inc.db <> membership_facts ora.db then
            QCheck.Test.fail_reportf "membership/extent facts diverged after %s" step
          else if props inc <> props ora then
            QCheck.Test.fail_reportf "property reads diverged after %s" step
          else
            match Database.check inc.db, Database.check ora.db with
            | [], [] ->
              (* every edge the translation added held in the extents, so
                 the fixpoint over every object moves nothing *)
              moved := 0;
              Database.reclassify_all inc.db;
              if !moved > 0 then
                QCheck.Test.fail_reportf "reclassify_all moved %d objects after %s"
                  !moved step
              else go (i - 1)
            | p, p' ->
              QCheck.Test.fail_reportf "inconsistent after %s:@.%s@.oracle:@.%s"
                step (String.concat "\n" p)
                (String.concat "\n" p')
        end
      in
      go 10)

(* A translation computes the old view's generated hierarchy once and
   reuses it for its walks and for stitch (Translator.make_ctx). That is
   sound only if no change kind alters the is-a relationships among the
   old view's classes: over random chains of every change kind, the old
   view's Generation.edges must be the same after Translator.apply as
   before it. *)
let prop_apply_keeps_old_view_edges =
  QCheck.Test.make ~name:"a change keeps the old view's hierarchy (random chains)"
    ~count:25 seed_arb (fun seed ->
      let rs =
        Random_schema.generate ~seed ~classes:7 ~objects:8 ~virtuals:4 ()
      in
      let tsem = Tsem.of_database rs.db in
      let graph = Database.graph rs.db in
      let rng = Random.State.make [| seed; 47 |] in
      let fresh prefix = Printf.sprintf "%s%d" prefix (Random.State.int rng 10_000) in
      let random_change view =
        let names =
          List.filter_map (Tse_views.View_schema.local_name view)
            (Tse_views.View_schema.classes view)
          |> List.sort String.compare |> Array.of_list
        in
        let pick () = names.(Random.State.int rng (Array.length names)) in
        let c1 = pick () and c2 = pick () and c3 = pick () in
        let attr_of c =
          Random_schema.random_attr rng rs (Tse_views.View_schema.cid_of_exn view c)
        in
        let attr c = Option.value (attr_of c) ~default:"a0" in
        match Random.State.int rng 13 with
        | 0 -> Change.Add_attribute { cls = c1; def = Change.attr (fresh "n") Value.TInt }
        | 1 -> Change.Delete_attribute { cls = c1; attr_name = attr c1 }
        | 2 -> Change.Add_method { cls = c1; method_name = fresh "m"; body = Expr.int 1 }
        | 3 -> (
          let cid = Tse_views.View_schema.cid_of_exn view c1 in
          match Type_info.methods graph cid with
          | [] -> Change.Add_method { cls = c1; method_name = fresh "m"; body = Expr.int 1 }
          | ms ->
            let m = List.nth ms (Random.State.int rng (List.length ms)) in
            Change.Delete_method { cls = c1; method_name = m.Prop.name })
        | 4 -> Change.Add_edge { sup = c1; sub = c2 }
        | 5 -> (
          let name = Tse_views.View_schema.local_name view in
          match Tse_views.Generation.edges graph view with
          | [] -> Change.Add_edge { sup = c1; sub = c2 }
          | edges ->
            let sup, sub = List.nth edges (Random.State.int rng (List.length edges)) in
            let connected_to = if Random.State.bool rng then Some c3 else None in
            Change.Delete_edge
              { sup = Option.get (name sup); sub = Option.get (name sub); connected_to })
        | 6 ->
          let connected_to = if Random.State.bool rng then Some c1 else None in
          Change.Add_class { cls = fresh "N"; connected_to }
        | 7 -> Change.Delete_class { cls = c1 }
        | 8 -> Change.Rename_class { old_name = c1; new_name = fresh "R" }
        | 9 ->
          let predicate =
            match attr_of c1 with
            | Some a -> Expr.(attr a >= int (Random.State.int rng 100))
            | None -> Expr.bool true
          in
          Change.Partition_class
            { cls = c1; predicate; into_true = fresh "PT"; into_false = fresh "PF" }
        | 10 -> Change.Coalesce_classes { a = c1; b = c2; as_name = fresh "U" }
        | 11 -> Change.Insert_class { cls = fresh "I"; sup = c1; sub = c2 }
        | _ -> Change.Delete_class_2 { cls = c1 }
      in
      let rec go i view =
        if i = 0 || Tse_views.View_schema.classes view = [] then true
        else begin
          let change = random_change view in
          let before = Tse_views.Generation.edges graph view in
          match Translator.apply rs.db view change with
          | view' ->
            if Tse_views.Generation.edges graph view <> before then
              QCheck.Test.fail_reportf "%s changed the old view's hierarchy"
                (Change.to_string change)
            else go (i - 1) view'
          | exception Change.Rejected _ -> go (i - 1) view
        end
      in
      go 15
        (Tsem.define_view_by_names tsem ~name:"V" (Random_schema.class_names rs)))

(* Both admission paths must be exercised by the random evolutions, or the
   property above proves nothing about one of them. *)
let admission_equals_oracle_case =
  let name, speed, run = Qcheck_det.to_alcotest prop_admission_equals_oracle in
  let counters () =
    ( Tse_obs.Metrics.find_counter "reclass.admit_fast",
      Tse_obs.Metrics.find_counter "reclass.admit_fallback" )
  in
  ( name,
    speed,
    fun () ->
      let fast0, fallback0 = counters () in
      run ();
      let fast, fallback = counters () in
      Alcotest.(check bool) "fast admissions happened" true (fast > fast0);
      Alcotest.(check bool) "fallback admissions happened" true (fallback > fallback0) )

let suite =
  admission_equals_oracle_case
  :: List.map Qcheck_det.to_alcotest
    [
      prop_models_agree;
      prop_incremental_equals_oracle;
      prop_catalog_roundtrip;
      prop_random_schema_consistent;
      prop_tse_equals_direct;
      prop_view_independence;
      prop_updatability_preserved;
      prop_history_monotone;
      prop_trace_calibration;
      prop_trace_replay_consistent;
      prop_apply_keeps_old_view_edges;
    ]
