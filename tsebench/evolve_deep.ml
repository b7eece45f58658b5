(* evolve_deep: a long chain of view evolutions on an in-memory Tsem.

   Each round sets up the Figure 2 university database with a dozen
   objects, a main view over all eight classes and a second view that is
   never evolved, then applies a fresh seeded chain ({!Gen}) to the main
   view. Rounds repeat until the run's time is up; every round starts
   from scratch, so every round walks the same range of history depths.
   Schema metadata does almost all the work: objects are few. *)

open Tse_core
module Database = Tse_db.Database
module Schema_graph = Tse_schema.Schema_graph
module Type_info = Tse_schema.Type_info
module Deps = Tse_schema.Deps
module Generation = Tse_views.Generation
module View_schema = Tse_views.View_schema
module University = Tse_workload.University

let main = "main"
let side = "side"
let chain_length = 100
let min_rounds = 2
let setup_reps = 10

type round = {
  tsem : Tsem.t;
  side_fp : Digest.t;
  chain : Change.t list;
}

let side_fingerprint tsem =
  Digest.string (Verify.view_fingerprint (Tsem.db tsem) (Tsem.current tsem side))

let setup ~seed =
  let u = University.build () in
  ignore (University.populate u ~n:12);
  let tsem = Tsem.of_database u.db in
  ignore (Tsem.define_view_by_names tsem ~name:main University.names_of_fig2);
  ignore
    (Tsem.define_view_by_names tsem ~name:side [ "Person"; "Student"; "Staff" ]);
  { tsem; side_fp = side_fingerprint tsem; chain = Gen.chain ~seed chain_length }

(* Schema-layer probes over the final view (traced run only): what one
   schema-metadata read costs once history is deep. *)
let probes b tsem =
  let db = Tsem.db tsem in
  let graph = Database.graph db in
  let view = Tsem.current tsem main in
  let cids = View_schema.classes view in
  let n = float (List.length cids) in
  let per_class name f =
    let t0 = Bench.now () in
    Bench.aside b ("probe." ^ name) (fun () -> List.iter f cids);
    (Bench.now () -. t0) *. 1e6 /. n
  in
  let full_type = per_class "full_type" (fun c -> ignore (Type_info.full_type graph c)) in
  let cold = per_class "ancestors" (fun c -> ignore (Schema_graph.ancestors graph c)) in
  let warm = per_class "ancestors" (fun c -> ignore (Schema_graph.ancestors graph c)) in
  let t0 = Bench.now () in
  Bench.aside b "probe.deps" (fun () -> ignore (Deps.compute graph));
  let deps_ms = (Bench.now () -. t0) *. 1e3 in
  let t0 = Bench.now () in
  Bench.aside b "probe.generation" (fun () -> ignore (Generation.edges graph view));
  let edges_us = (Bench.now () -. t0) *. 1e6 in
  [
    ("schema.probe.full_type_us", full_type);
    ("schema.probe.ancestors_cold_us", cold);
    ("schema.probe.ancestors_warm_us", warm);
    ("schema.probe.deps_compute_ms", deps_ms);
    ("views.probe.generation_edges_us", edges_us);
  ]

let run b ~seed ~seconds =
  let deadline = Bench.now () +. seconds in
  let setups = ref [] and last = ref None in
  let rec rounds r =
    (* every round starts from the same heap; set-up is timed over
       several repetitions because one takes well under a millisecond *)
    Gc.compact ();
    let rd =
      List.init setup_reps (fun _ ->
          let t0 = Bench.now () in
          let rd = setup ~seed:((seed * 7919) + r) in
          setups := (Bench.now () -. t0) :: !setups;
          rd)
      |> List.rev |> List.hd
    in
    let db = Tsem.db rd.tsem in
    let size0 = Schema_graph.size (Database.graph db) in
    Bench.phase b (fun () ->
        List.iter
          (fun change ->
            ignore (Bench.guarded b "evolve" (fun () -> Tsem.evolve rd.tsem ~view:main change)))
          rd.chain);
    let size = Schema_graph.size (Database.graph db) in
    Bench.check b "evolve_deep: Database.check is empty" (Database.check db = []);
    Bench.check b "evolve_deep: untouched view unchanged (Proposition B)"
      (Digest.equal rd.side_fp (side_fingerprint rd.tsem));
    last := Some (rd.tsem, size, size - size0);
    if r + 1 < min_rounds || Bench.now () < deadline then rounds (r + 1)
  in
  rounds 0;
  let tsem, final, added = Option.get !last in
  let evolutions = Bench.count b "evolve" in
  let ms p = Bench.quantile (Bench.samples b "evolve") p *. 1e3 in
  {
    Bench.setups = List.rev !setups;
    headline = "evolve";
    tail = 0.9;
    ops = evolutions;
    detail =
      [
        ("evolve_ms_p50", ms 0.5, "ms");
        ("evolve_ms_p90", ms 0.9, "ms");
        ("evolutions", float evolutions, "count");
      ];
    layer =
      [
        ("schema.classes_final", float final);
        ("objmodel.impl_objects_per_object", Univ.impl_per_object (Tsem.db tsem));
        ("schema.classes_per_evo", float added /. float chain_length);
        ( "views.history_versions",
          float (Tse_views.History.total_versions (Tsem.history tsem)) );
      ]
      @ (if b.Bench.trace then probes b tsem else []);
  }
