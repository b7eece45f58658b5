(* tsebench: the repository's benchmark driver.

     tsebench --workload evolve_deep|views_oltp|durable_evolve
              [--seed N] [--seconds S] [--trace 0|1]

   One closed-loop client in one process, the domain pool at its default
   of one domain. Inputs are generated from the seed; the library only
   receives them. Every run checks the library's outputs, prints the
   metrics with their units, and ends with one JSON line:
   {"correct":..,"attempted":..,"failed":..,"metrics":{..}}. With
   [--trace 0] the metrics are the end-to-end ones; with [--trace 1] the
   run is repeated with an in-memory span sink installed and the metrics
   are the per-layer breakdown. The exit code is 1 when a check failed,
   2 on a usage error or a refused environment. METRICS.md describes
   every metric. *)

module Trace = Tse_obs.Trace

(* Settings that change what the program does (or how much it logs) on
   one side of a comparison only. *)
let refused_env =
  [
    "TSE_ANALYZE";
    "DB_FULL_RECLASSIFY";
    "TSE_SYNC_POLICY";
    "TSE_DOMAINS";
    "TSE_PAR_THRESHOLD";
    "TSE_TRACE";
    "TSE_LOG_LEVEL";
  ]

let workloads = [ "evolve_deep"; "views_oltp"; "durable_evolve" ]

let usage () =
  prerr_endline
    "usage: tsebench --workload evolve_deep|views_oltp|durable_evolve [--seed N] \
     [--seconds S] [--trace 0|1]";
  exit 2

let parse_args () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref false in
  let rec go = function
    | [] -> ()
    | "--workload" :: w :: rest ->
      workload := w;
      go rest
    | "--seed" :: s :: rest ->
      seed := (try int_of_string s with _ -> usage ());
      go rest
    | "--seconds" :: s :: rest ->
      seconds := (try float_of_string s with _ -> usage ());
      go rest
    | "--trace" :: ("0" | "1" as v) :: rest ->
      trace := v = "1";
      go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  if not (List.mem !workload workloads) then usage ();
  (!workload, !seed, !seconds, !trace)

(* Durable workloads keep their database under the current directory. *)
let scratch_root = "_tsebench_tmp"

let run_workload workload b ~seed ~seconds =
  (try Unix.mkdir scratch_root 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let dir = Filename.concat scratch_root (Printf.sprintf "%s-%d" workload (Unix.getpid ())) in
  Fun.protect
    ~finally:(fun () ->
      Univ.remove_tree dir;
      try Unix.rmdir scratch_root with Unix.Unix_error _ -> ())
    (fun () ->
      match workload with
      | "evolve_deep" -> Evolve_deep.run b ~seed ~seconds
      | "views_oltp" -> Views_oltp.run b ~seed ~seconds ~dir
      | _ -> Durable_evolve.run b ~seed ~seconds ~dir)

(* The end-to-end metrics: the same five on every workload. The op is the
   workload's headline call: an evolution (evolve_deep), a write
   (views_oltp), a crash-restart (durable_evolve). *)
let end_to_end b (r : Bench.report) =
  let lat = Bench.samples b r.headline in
  let top = (Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8) in
  [
    ("setup_s", Bench.median r.setups, "s");
    ("ops_per_s", Bench.ops_per_s b r.ops, "1/s");
    ("op_ms_p50", Bench.quantile lat 0.5 *. 1e3, "ms");
    ("op_ms_tail", Bench.quantile lat r.tail *. 1e3, "ms");
    ("heap_mb_peak", float top /. 1048576., "MB");
  ]

let json_num x = if Float.is_finite x then Printf.sprintf "%.17g" x else "0"

let print_result b metrics =
  let correct = b.Bench.failed = 0 && b.Bench.attempted > 0 in
  let body =
    List.map
      (fun (name, v, unit) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_num v) unit)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct b.Bench.attempted b.Bench.failed (String.concat ", " body);
  if not correct then exit 1

let print_metrics title rows =
  Printf.printf "-- %s\n" title;
  List.iter (fun (name, v, unit) -> Printf.printf "  %-40s %14.4f %s\n" name v unit) rows

let print_failures b =
  let n = b.Bench.failed and a = b.Bench.attempted in
  Printf.printf "  %-40s %14.6f (%d of %d)\n" "failed_frac"
    (if a = 0 then 0. else float n /. float a) n a;
  List.iter (fun f -> Printf.printf "  FAILED %s\n" f) (List.rev b.Bench.failures)

let () =
  let workload, seed, seconds, trace = parse_args () in
  (match List.filter (fun v -> match Sys.getenv_opt v with Some s -> s <> "" | None -> false) refused_env with
  | [] -> ()
  | set ->
    Printf.eprintf "tsebench: refusing to run with %s set\n" (String.concat ", " set);
    exit 2);
  Printf.printf
    "tsebench workload=%s seed=%d seconds=%g trace=%b sync=%s pool_domains=%d ocaml=%s nproc=%d\n%!"
    workload seed seconds trace
    (Tse_db.Durable.policy_to_string Univ.policy)
    (Tse_pool.Pool.size (Tse_pool.Pool.global ()))
    Sys.ocaml_version
    (Domain.recommended_domain_count ());
  let b = Bench.create ~trace:false in
  let r = run_workload workload b ~seed ~seconds in
  let e2e = end_to_end b r in
  print_metrics "end-to-end" e2e;
  print_metrics (workload ^ " detail") r.detail;
  if not trace then begin
    print_failures b;
    print_result b e2e
  end
  else begin
    let lines = ref [] in
    Trace.set_sink (Some (fun l -> lines := l :: !lines));
    let bt = Bench.create ~trace:true in
    let rt = run_workload workload bt ~seed ~seconds in
    Trace.set_sink None;
    let spans =
      List.rev_map
        (fun l -> match Trace.parse_line l with Ok s -> s | Error e -> failwith e)
        !lines
    in
    lines := [];
    let overhead_pct =
      Some (100. *. ((Bench.ops_per_s b r.ops /. Bench.ops_per_s bt rt.ops) -. 1.))
    in
    let layer = Layers.metrics bt rt spans ~overhead_pct in
    Printf.printf "-- per-layer (traced run)\n";
    List.iter
      (fun (name, v, unit) ->
        match v with
        | Some v -> Printf.printf "  %-40s %14.4f %s\n" name v unit
        | None -> Printf.printf "  %-40s %14s %s\n" name "absent" unit)
      layer;
    Printf.printf "-- self-time shares per bench span (sum to 100%%)\n";
    List.iter
      (fun (op, total, rows) ->
        Printf.printf "  %s (%.1f ms)\n" op (float total /. 1e3);
        List.iter (fun (name, pct) -> Printf.printf "    %-38s %6.2f%%\n" name pct) rows)
      (Layers.shares spans);
    print_failures bt;
    bt.Bench.attempted <- bt.Bench.attempted + b.Bench.attempted;
    bt.Bench.failed <- bt.Bench.failed + b.Bench.failed;
    print_result bt
      (List.map (fun (name, v, unit) -> (name, Option.value v ~default:0., unit)) layer)
  end
