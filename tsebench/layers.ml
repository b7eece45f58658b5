(* The traced run's per-layer breakdown: self times of the spans the
   program emits under each [bench.*] span, counter deltas charged to the
   op that moved them, and runtime (GC) figures. Every metric is per op
   of the kind its layer serves; [None] means absent (the counter is not
   registered, or the workload never ran that op), never a silent 0. *)

module Trace = Tse_obs.Trace
module Trace_analyze = Tse_obs.Trace_analyze

(* Per (enclosing bench span, span name): count, total duration and total
   self time (us). Spans outside any bench span are keyed by [""]. *)
type agg = { mutable n : int; mutable dur : int; mutable self : int }

let is_bench name = String.length name > 6 && String.sub name 0 6 = "bench."

let aggregate forest =
  let tbl = Hashtbl.create 32 in
  let get key =
    match Hashtbl.find_opt tbl key with
    | Some a -> a
    | None ->
      let a = { n = 0; dur = 0; self = 0 } in
      Hashtbl.replace tbl key a;
      a
  in
  let rec walk root (t : Trace_analyze.tree) =
    let name = t.span.Trace.name in
    let root = if root = "" && is_bench name then name else root in
    let a = get (root, name) in
    a.n <- a.n + 1;
    a.dur <- a.dur + t.span.Trace.dur_us;
    a.self <- a.self + Trace_analyze.self_us t;
    List.iter (walk root) t.children
  in
  List.iter (walk "") forest;
  tbl

(* Duration of the outermost spans named [names] below a tree's root. *)
let rec covered names (t : Trace_analyze.tree) =
  List.fold_left
    (fun acc (c : Trace_analyze.tree) ->
      if List.mem c.span.Trace.name names then acc + c.span.Trace.dur_us
      else acc + covered names c)
    0 t.children

let ops_with_spans =
  [ "evolve"; "update"; "commit"; "query"; "reopen"; "checkpoint" ]

let metrics b (r : Bench.report) spans ~overhead_pct =
  let forest = Trace_analyze.forest spans in
  let agg = aggregate forest in
  let find ~under name = Hashtbl.find_opt agg ("bench." ^ under, name) in
  let div a n = if n = 0 then None else Some (a /. float n) in
  let count op = Bench.count b op in
  let evos = count "evolve" and writes = count "update" and commits = count "commit" in
  let queries = count "query" and reopens = count "reopen" in
  (* self time (or duration) of span [name] inside [bench.<under>] spans,
     per op; ms, or us with [~scale:1.] *)
  let self_per ?(scale = 1e-3) ~under name n =
    match find ~under name with
    | Some a -> div (float a.self *. scale) n
    | None -> if n = 0 then None else Some 0.
  in
  let dur_per ?(scale = 1e-3) ~under name n =
    match find ~under name with
    | Some a -> div (float a.dur *. scale) n
    | None -> if n = 0 then None else Some 0.
  in
  let delta op name = Bench.counter_delta b op name in
  let ratio num den =
    match (num, den) with
    | Some a, Some d when d > 0 -> Some (float a /. float d)
    | _ -> None
  in
  let per op name n = match delta op name with Some v -> div (float v) n | None -> None in
  let sum_ops name =
    List.fold_left
      (fun acc op ->
        match (acc, delta op name) with
        | Some a, Some v -> Some (a + v)
        | _ -> None)
      (Some 0)
      [ "evolve"; "update"; "commit"; "select"; "count"; "reopen"; "checkpoint" ]
  in
  let opt_add a b = match (a, b) with Some a, Some b -> Some (a + b) | _ -> None in
  let durable_overhead =
    let roots =
      List.filter (fun (t : Trace_analyze.tree) -> t.span.Trace.name = "bench.evolve") forest
    in
    let total =
      List.fold_left
        (fun acc (t : Trace_analyze.tree) ->
          acc + t.span.Trace.dur_us - covered [ "evolve.analyze"; "evolve.change" ] t)
        0 roots
    in
    div (float total *. 1e-3) (List.length roots)
  in
  let unattributed op =
    match find ~under:op ("bench." ^ op) with
    | Some a when a.dur > 0 -> Some (100. *. float a.self /. float a.dur)
    | _ -> None
  in
  let covered_s =
    Hashtbl.fold
      (fun name l acc ->
        if String.equal name "write" then acc else acc +. List.fold_left ( +. ) 0. !l)
      b.Bench.samples b.Bench.untimed_s
  in
  let layer name = List.assoc_opt name r.Bench.layer in
  let nops = r.Bench.ops in
  [
    ("core.evolve_change.self_ms_per_evo", self_per ~under:"evolve" "evolve.change" evos, "ms");
    ("core.durable_overhead_ms_per_evo", durable_overhead, "ms");
    ("analysis.gate.self_ms_per_evo", self_per ~under:"evolve" "evolve.analyze" evos, "ms");
    ("algebra.derive.self_ms_per_evo", self_per ~under:"evolve" "evolve.derive" evos, "ms");
    ( "algebra.derive.count_per_evo",
      (match find ~under:"evolve" "evolve.derive" with
      | Some a -> div (float a.n) evos
      | None -> div 0. evos),
      "count" );
    ("classifier.classify.self_ms_per_evo", self_per ~under:"evolve" "evolve.classify" evos, "ms");
    ("classifier.integrate.self_ms_per_evo", self_per ~under:"evolve" "evolve.integrate" evos, "ms");
    ("classifier.reclassify.self_ms_per_evo", self_per ~under:"evolve" "evolve.reclassify" evos, "ms");
    ("schema.classes_final", layer "schema.classes_final", "count");
    ("schema.classes_per_evo", layer "schema.classes_per_evo", "count");
    ("schema.probe.full_type_us", layer "schema.probe.full_type_us", "us");
    ("schema.probe.ancestors_cold_us", layer "schema.probe.ancestors_cold_us", "us");
    ("schema.probe.ancestors_warm_us", layer "schema.probe.ancestors_warm_us", "us");
    ("schema.probe.deps_compute_ms", layer "schema.probe.deps_compute_ms", "ms");
    ("views.probe.generation_edges_us", layer "views.probe.generation_edges_us", "us");
    ("views.history_versions", layer "views.history_versions", "count");
    ( "db.reclass.objects_visited_per_write",
      per "update" "reclass.objects_visited" writes,
      "count" );
    ("db.reclass.formula_evals_per_write", per "update" "reclass.formula_evals" writes, "count");
    ( "db.reclass.verdict_memo_hit_rate",
      (let hits = delta "update" "reclass.verdict_memo_hits" in
       ratio hits (opt_add hits (delta "update" "reclass.formula_evals"))),
      "ratio" );
    ("db.reclass.objects_visited_per_evo", per "evolve" "reclass.objects_visited" evos, "count");
    ("update.generic.self_us_per_write", self_per ~scale:1. ~under:"update" "bench.update" writes, "us");
    ("store.commit.self_us_per_write", self_per ~scale:1. ~under:"commit" "durable.commit" commits, "us");
    ("store.wal.fsyncs_per_commit", per "commit" "wal.fsyncs" commits, "count");
    ("store.wal.bytes_per_commit", per "commit" "wal.bytes_framed" commits, "bytes");
    ( "store.heap.slot_reads_per_op",
      (match sum_ops "heap.slot_reads" with Some v -> div (float v) nops | None -> None),
      "count" );
    ("store.snapshot.decode_ms_per_reopen", dur_per ~under:"reopen" "snapshot.decode" reopens, "ms");
    ("store.recovery.replay_ms_per_reopen", dur_per ~under:"reopen" "recovery.replay" reopens, "ms");
    ( "core.roll_forward_ms_per_reopen",
      dur_per ~under:"reopen" "recovery.roll_forward" reopens,
      "ms" );
    ("db.durable_open.self_ms_per_reopen", self_per ~under:"reopen" "durable.open" reopens, "ms");
    ("store.snapshot.bytes", layer "store.snapshot.bytes", "bytes");
    ( "store.checkpoint_ms",
      dur_per ~under:"checkpoint" "durable.checkpoint" (Bench.count b "checkpoint"),
      "ms" );
    ("objmodel.impl_objects_per_object", layer "objmodel.impl_objects_per_object", "ratio");
    ("query.select.self_us_per_query", self_per ~scale:1. ~under:"query" "query.select" queries, "us");
    ( "query.rows_scanned_per_returned",
      ratio (delta "select" "query.rows_scanned") (delta "select" "query.rows_returned"),
      "ratio" );
    ( "query.plan_cache_hit_rate",
      (let h = opt_add (delta "select" "query.plan_cache_hits") (delta "count" "query.plan_cache_hits") in
       let m = opt_add (delta "select" "query.plan_cache_misses") (delta "count" "query.plan_cache_misses") in
       ratio h (opt_add h m)),
      "ratio" );
    ( "query.index_probe_frac",
      (let probes =
         opt_add (delta "select" "query.index_lookups") (delta "select" "query.range_scans")
       in
       ratio probes (opt_add probes (delta "select" "query.extent_scans"))),
      "ratio" );
    ("runtime.minor_words_per_op", div b.Bench.minor_words nops, "words");
    ("runtime.major_collections", Some (float b.Bench.major_collections), "count");
  ]
  @ List.map
      (fun op -> ("trace.unattributed_pct." ^ op, unattributed op, "%"))
      ops_with_spans
  @ [
      ("trace.overhead_pct", overhead_pct, "%");
      ( "trace.bench_coverage_pct",
        (if b.Bench.timed_s > 0. then Some (100. *. covered_s /. b.Bench.timed_s) else None),
        "%" );
      ("base.evolutions", Some (float evos), "count");
      ("base.writes", Some (float writes), "count");
      ("base.commits", Some (float commits), "count");
      ("base.queries", Some (float queries), "count");
      ("base.reopens", Some (float reopens), "count");
      ("base.ops", Some (float nops), "count");
    ]

(* For each op type: the share of the [bench.<op>] span time each named
   span's self time takes; with the unattributed share they add to 100. *)
let shares spans =
  let forest = Trace_analyze.forest spans in
  let per_op = Hashtbl.create 8 in
  let rec walk op (t : Trace_analyze.tree) =
    let tbl =
      match Hashtbl.find_opt per_op op with
      | Some x -> x
      | None ->
        let x = Hashtbl.create 8 in
        Hashtbl.replace per_op op x;
        x
    in
    let name = t.span.Trace.name in
    let prev = Option.value (Hashtbl.find_opt tbl name) ~default:0 in
    Hashtbl.replace tbl name (prev + Trace_analyze.self_us t);
    List.iter (walk op) t.children
  in
  List.iter
    (fun (t : Trace_analyze.tree) ->
      let name = t.span.Trace.name in
      if is_bench name then walk name t)
    forest;
  Hashtbl.fold
    (fun op tbl acc ->
      let total = Hashtbl.fold (fun _ v s -> s + v) tbl 0 in
      let rows =
        Hashtbl.fold (fun name v l -> (name, v) :: l) tbl []
        |> List.sort (fun (_, a) (_, b) -> compare b a)
        |> List.map (fun (name, v) ->
               let name = if String.equal name op then "(unattributed)" else name in
               (name, if total = 0 then 0. else 100. *. float v /. float total))
      in
      (op, total, rows) :: acc)
    per_op []
  |> List.sort compare
