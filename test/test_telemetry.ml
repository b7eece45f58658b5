(* Telemetry plane: percentile accessors, the ring-buffer sampler
   (including under concurrent mutation from worker domains), the stats
   endpoint, and the stall watchdog.

   This suite is registered LAST in test_main: the sampler's
   reset-clamp tests call [Metrics.reset], which zeroes the global
   registry other suites read deltas from. *)

module Metrics = Tse_obs.Metrics
module Timeseries = Tse_obs.Timeseries
module Telemetry_server = Tse_obs.Telemetry_server
module Watchdog = Tse_obs.Watchdog
module Log = Tse_obs.Log

let feq ?(eps = 1e-6) a b = Float.abs (a -. b) <= eps

(* ---- Histogram.percentile ------------------------------------------- *)

let test_percentile_uniform () =
  (* 1..100 against decade buckets: interpolation is exact on the grid *)
  let obs = List.init 100 (fun i -> float_of_int (i + 1)) in
  let buckets = List.init 10 (fun i -> float_of_int ((i + 1) * 10)) in
  let h = Metrics.Histogram.of_observations ~buckets obs in
  Alcotest.(check int) "count" 100 h.Metrics.h_count;
  Alcotest.(check bool) "sum" true (feq h.Metrics.h_sum 5050.);
  Alcotest.(check bool) "p50" true (feq h.Metrics.h_p50 50.);
  Alcotest.(check bool) "p95" true (feq h.Metrics.h_p95 95.);
  Alcotest.(check bool) "p99" true (feq h.Metrics.h_p99 99.);
  Alcotest.(check bool)
    "p10" true
    (feq (Metrics.Histogram.percentile_of h 0.10) 10.);
  Alcotest.(check bool)
    "p100 clamps to last bound" true
    (feq (Metrics.Histogram.percentile_of h 1.0) 100.)

let test_percentile_edges () =
  let empty = Metrics.Histogram.of_observations [] in
  Alcotest.(check bool) "empty p50 is 0" true (feq empty.Metrics.h_p50 0.);
  (* everything beyond the last bound: the +inf bucket reports the last
     finite bound as a lower bound on the truth *)
  let inf = Metrics.Histogram.of_observations ~buckets:[ 1.; 2. ] [ 5.; 6.; 7. ] in
  Alcotest.(check int) "all in +inf" 3 inf.Metrics.h_inf;
  Alcotest.(check bool) "p50 reports last bound" true (feq inf.Metrics.h_p50 2.);
  Alcotest.(check bool) "p99 reports last bound" true (feq inf.Metrics.h_p99 2.)

let test_percentile_registry_handle () =
  let h = Metrics.histogram ~buckets:[ 10.; 20.; 40. ] "tstel.lat" in
  List.iter (Metrics.observe h) [ 5.; 15.; 15.; 35. ];
  let p50 = Metrics.Histogram.percentile h 0.5 in
  Alcotest.(check bool)
    "p50 inside the 10..20 bucket" true
    (p50 >= 10. && p50 <= 20.);
  (* the snapshot caches the same estimates the accessor computes *)
  let snap =
    List.find_map
      (fun s ->
        match (Metrics.key_of s, s.Metrics.s_value) with
        | "tstel.lat", Metrics.Histogram snap -> Some snap
        | _ -> None)
      (Metrics.snapshot ())
  in
  match snap with
  | None -> Alcotest.fail "tstel.lat not in snapshot"
  | Some snap ->
    Alcotest.(check bool)
      "snapshot p50 = accessor p50" true
      (feq snap.Metrics.h_p50 p50)

(* ---- Timeseries sampler --------------------------------------------- *)

let strictly_increasing pts =
  let rec go = function
    | (a, _) :: ((b, _) :: _ as rest) -> a < b && go rest
    | _ -> true
  in
  go pts

let test_sampler_counter_rates () =
  let c = Metrics.counter "tstel.ops" in
  let ts = Timeseries.create ~capacity:8 () in
  Timeseries.sample ts;
  (* first tick is baseline-only *)
  Alcotest.(check (list (pair int (float 0.))))
    "no rate point from the baseline tick" []
    (Timeseries.points ts "tstel.ops");
  for _ = 1 to 20 do
    Metrics.add c 5;
    Timeseries.sample ts
  done;
  let pts = Timeseries.points ts "tstel.ops" in
  Alcotest.(check int) "ring keeps the last [capacity]" 8 (List.length pts);
  Alcotest.(check bool) "timestamps strictly increasing" true
    (strictly_increasing pts);
  Alcotest.(check bool) "rates positive" true
    (List.for_all (fun (_, v) -> v > 0.) pts)

let test_sampler_reset_clamps () =
  let c = Metrics.counter "tstel.reset" in
  let ts = Timeseries.create () in
  Timeseries.sample ts;
  Metrics.add c 1000;
  Timeseries.sample ts;
  Metrics.reset ();
  (* the counter regressed to 0: the delta is clamped, never negative *)
  Timeseries.sample ts;
  Metrics.add c 3;
  Timeseries.sample ts;
  let pts = Timeseries.points ts "tstel.reset" in
  Alcotest.(check bool) "no negative rate across a reset" true
    (List.for_all (fun (_, v) -> v >= 0.) pts);
  match Timeseries.last ts "tstel.reset" with
  | Some (_, v) -> Alcotest.(check bool) "re-baselined after reset" true (v > 0.)
  | None -> Alcotest.fail "series disappeared"

let test_sampler_gauge_and_quantiles () =
  let g = Metrics.gauge "tstel.g" in
  let h = Metrics.histogram ~buckets:[ 1.; 10.; 100. ] "tstel.h" in
  let ts = Timeseries.create () in
  Metrics.set_gauge g 3.5;
  Timeseries.sample ts;
  Metrics.observe h 5.;
  Metrics.observe h 50.;
  Timeseries.sample ts;
  (match Timeseries.last ts "tstel.g" with
  | Some (_, v) -> Alcotest.(check bool) "gauge value" true (feq v 3.5)
  | None -> Alcotest.fail "gauge series missing");
  Alcotest.(check bool) "p50 series appears once non-empty" true
    (Timeseries.points ts "tstel.h.p50" <> []);
  (match Timeseries.last ts "tstel.h.rate" with
  | Some (_, v) -> Alcotest.(check bool) "observation rate > 0" true (v > 0.)
  | None -> Alcotest.fail "histogram rate series missing");
  Alcotest.(check bool) "series_names sees the sampler's series" true
    (List.mem "tstel.h.p95" (Timeseries.series_names ts))

(* The satellite hammer: worker domains mutate the registry while the
   background sampler ticks at full speed; every sample must stay
   monotone in time with non-negative rates. *)
let test_sampler_hammer_multidomain () =
  let c = Metrics.counter "tstel.hammer" in
  let h = Metrics.histogram ~buckets:[ 1.; 10. ] "tstel.hammer_h" in
  let ts = Timeseries.create () in
  Timeseries.start ~interval_ms:2 ts;
  Alcotest.(check bool) "running" true (Timeseries.running ts);
  let deadline = Unix.gettimeofday () +. 0.15 in
  let workers =
    List.init 3 (fun w ->
        Domain.spawn (fun () ->
            while Unix.gettimeofday () < deadline do
              Metrics.add c (1 + w);
              Metrics.observe h (float_of_int w)
            done))
  in
  List.iter Domain.join workers;
  Timeseries.stop ts;
  Alcotest.(check bool) "stopped" false (Timeseries.running ts);
  let pts = Timeseries.points ts "tstel.hammer" in
  Alcotest.(check bool) "sampled while hammered" true (List.length pts >= 2);
  Alcotest.(check bool) "monotone timestamps" true (strictly_increasing pts);
  Alcotest.(check bool) "rates never negative" true
    (List.for_all (fun (_, v) -> v >= 0.) pts);
  let hr = Timeseries.points ts "tstel.hammer_h.rate" in
  Alcotest.(check bool) "histogram rates never negative" true
    (List.for_all (fun (_, v) -> v >= 0.) hr);
  (* stop is idempotent and a stopped sampler still reads *)
  Timeseries.stop ts;
  Alcotest.(check bool) "readable after stop" true
    (Timeseries.points ts "tstel.hammer" = pts)

(* qcheck: any interleaving of bumps, ticks and registry resets keeps
   every series monotone in time with non-negative rates. *)
let prop_sampler_monotone_nonneg =
  QCheck.Test.make ~count:30
    ~name:"sampler: monotone time, non-negative rates under random ops"
    QCheck.(list (pair (int_bound 2) (int_bound 100)))
    (fun ops ->
      let c = Metrics.counter "tstel.prop" in
      let ts = Timeseries.create ~capacity:16 () in
      Timeseries.sample ts;
      List.iter
        (fun (op, amt) ->
          match op with
          | 0 -> Metrics.add c amt
          | 1 -> Timeseries.sample ts
          | _ -> Metrics.reset ())
        ops;
      Timeseries.sample ts;
      let pts = Timeseries.points ts "tstel.prop" in
      strictly_increasing pts && List.for_all (fun (_, v) -> v >= 0.) pts)

let test_timeseries_json_shape () =
  let c = Metrics.counter "tstel.json" in
  let ts = Timeseries.create () in
  Timeseries.sample ts;
  Metrics.add c 2;
  Timeseries.sample ts;
  let json = Timeseries.to_json ts in
  Alcotest.(check bool) "object" true (String.length json > 0 && json.[0] = '{');
  let has needle =
    let n = String.length needle and l = String.length json in
    let rec go i =
      i + n <= l && (String.sub json i n = needle || go (i + 1))
    in
    go 0
  in
  Alcotest.(check bool) "interval_ms present" true (has "\"interval_ms\"");
  Alcotest.(check bool) "series array present" true (has "\"series\"");
  Alcotest.(check bool) "our series present" true (has "\"tstel.json\"")

(* ---- Telemetry server ----------------------------------------------- *)

let contains hay needle =
  let n = String.length needle and l = String.length hay in
  let rec go i = i + n <= l && (String.sub hay i n = needle || go (i + 1)) in
  go 0

(* Sandboxes without sockets are an expected environment: a bind error
   skips rather than fails. *)
let with_server k =
  let ts = Timeseries.create () in
  ignore (Metrics.counter "tstel.srv");
  Timeseries.sample ts;
  Metrics.incr (Metrics.counter "tstel.srv");
  Timeseries.sample ts;
  match Telemetry_server.start ~addr:"127.0.0.1:0" ~ts () with
  | Error e -> Printf.printf "  [skip] no sockets here: %s\n" e
  | Ok srv ->
    Fun.protect ~finally:(fun () -> Telemetry_server.stop srv) (fun () ->
        k (Telemetry_server.addr srv))

let test_server_metrics_endpoint () =
  with_server (fun addr ->
      match Telemetry_server.fetch ~addr ~path:"/metrics" with
      | Error e -> Alcotest.fail ("fetch /metrics: " ^ e)
      | Ok body ->
        Alcotest.(check bool) "non-empty" true (String.length body > 0);
        Alcotest.(check bool) "tse_-prefixed families" true
          (contains body "tse_");
        Alcotest.(check bool) "typed exposition" true (contains body "# TYPE");
        Alcotest.(check bool) "histograms expose buckets" true
          (contains body "_bucket{le=");
        Alcotest.(check bool) "mangled, not dotted" true
          (not (contains body "tse_tstel.srv")))

let test_server_series_and_rates () =
  with_server (fun addr ->
      (match Telemetry_server.fetch ~addr ~path:"/series" with
      | Error e -> Alcotest.fail ("fetch /series: " ^ e)
      | Ok body ->
        Alcotest.(check bool) "json object" true
          (String.length body > 0 && body.[0] = '{');
        Alcotest.(check bool) "has series" true (contains body "\"series\""));
      (match Telemetry_server.fetch ~addr ~path:"/rates" with
      | Error e -> Alcotest.fail ("fetch /rates: " ^ e)
      | Ok body -> Alcotest.(check bool) "ops/s row" true (contains body "ops/s"));
      (match Telemetry_server.fetch ~addr ~path:"/metrics?x=1#top" with
      | Error e -> Alcotest.fail ("fetch /metrics with a query string: " ^ e)
      | Ok body -> Alcotest.(check bool) "query string ignored" true (contains body "tse_"));
      match Telemetry_server.fetch ~addr ~path:"/nope" with
      | Error e -> Alcotest.(check bool) "404" true (contains e "404")
      | Ok _ -> Alcotest.fail "unknown route served 200")

let test_path_of_request () =
  List.iter
    (fun (req, want) ->
      Alcotest.(check string) (String.escaped req) want
        (Telemetry_server.path_of_request req))
    [
      ("GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n", "/metrics");
      ("GET /metrics?x=1 HTTP/1.1\r\n", "/metrics");
      ("GET /series#top HTTP/1.0", "/series");
      ("GET /rates", "/rates");
      ("GET http://host/metrics HTTP/1.1", "/");
      ("GET  /metrics HTTP/1.1", "/");
      ("GET\r\n/metrics HTTP/1.1", "/");
      ("", "/");
    ]

(* The listener feeds whatever a client sent to [path_of_request]: on any
   bytes it must answer with a routable path, never raise. Requests are
   drawn from an alphabet rich in the separators the parser splits on. *)
let prop_path_of_request_total =
  let alphabet = [| ' '; '?'; '#'; '/'; '\r'; '\n'; '\000'; 'G'; 'E'; 'T'; 'm'; '%'; '\255' |] in
  let gen =
    QCheck.Gen.(
      oneof
        [
          string;
          string_size ~gen:(oneofa alphabet) (0 -- 40);
          map (fun s -> "GET " ^ s) (string_size ~gen:(oneofa alphabet) (0 -- 40));
        ])
  in
  QCheck.Test.make ~name:"path_of_request: total, routable result" ~count:2000
    (QCheck.make ~print:String.escaped gen) (fun req ->
      let p = Telemetry_server.path_of_request req in
      String.length p > 0
      && p.[0] = '/'
      && not (String.exists (fun c -> c = ' ' || c = '?' || c = '#') p))

let test_server_unix_socket () =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "tse_stats_%d.sock" (Unix.getpid ()))
  in
  let ts = Timeseries.create () in
  Timeseries.sample ts;
  match Telemetry_server.start ~addr:("unix:" ^ path) ~ts () with
  | Error e -> Printf.printf "  [skip] no unix sockets here: %s\n" e
  | Ok srv ->
    Fun.protect ~finally:(fun () -> Telemetry_server.stop srv) (fun () ->
        (match Telemetry_server.fetch ~addr:("unix:" ^ path) ~path:"/metrics" with
        | Error e -> Alcotest.fail ("fetch over unix socket: " ^ e)
        | Ok body ->
          Alcotest.(check bool) "exposition over AF_UNIX" true
            (contains body "tse_"));
        Alcotest.(check string) "addr echoes the path" ("unix:" ^ path)
          (Telemetry_server.addr srv));
    Alcotest.(check bool) "socket unlinked on stop" false (Sys.file_exists path)

(* One client connects and sends nothing. The listener serves a single
   connection at a time, so a concurrent scrape must still succeed once
   the idle client's deadline has dropped it. If the scrape is still
   pending well past that, the idle socket is closed to unblock the
   listener and the test fails. *)
let test_server_idle_client_cannot_stall () =
  with_server (fun addr ->
      let port = int_of_string (List.nth (String.split_on_char ':' addr) 1) in
      let idle = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> try Unix.close idle with Unix.Unix_error _ -> ())
        (fun () ->
          Unix.connect idle (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
          Unix.sleepf 0.05;
          let t0 = Unix.gettimeofday () in
          let finished = Atomic.make false in
          let scraper =
            Domain.spawn (fun () ->
                let r = Telemetry_server.fetch ~addr ~path:"/metrics" in
                Atomic.set finished true;
                r)
          in
          let limit = Telemetry_server.conn_timeout_s +. 3.0 in
          while
            (not (Atomic.get finished)) && Unix.gettimeofday () -. t0 < limit
          do
            Unix.sleepf 0.01
          done;
          let elapsed = Unix.gettimeofday () -. t0 in
          if not (Atomic.get finished) then Unix.close idle;
          let result = Domain.join scraper in
          Alcotest.(check bool)
            (Printf.sprintf "scrape done in %.2fs (limit %.1fs)" elapsed limit)
            true (elapsed < limit);
          match result with
          | Error e -> Alcotest.fail ("fetch /metrics: " ^ e)
          | Ok body ->
            Alcotest.(check bool) "well-formed exposition" true
              (contains body "# TYPE tse_" && contains body "\ntse_")))

(* ---- Watchdog ------------------------------------------------------- *)

let quiet_warnings k =
  let prev = Log.current_level () in
  Log.set_level Log.Error;
  Fun.protect ~finally:(fun () -> Log.set_level prev) k

let test_watchdog_fsync_stall () =
  quiet_warnings (fun () ->
      let before = Metrics.find_counter "watchdog.fsync_stalls" in
      let saved = Watchdog.fsync_stall_ms () in
      Watchdog.set_fsync_stall_ms 1.0;
      Watchdog.observe_fsync ~ms:0.2;
      Alcotest.(check int) "fast fsync: no stall" before
        (Metrics.find_counter "watchdog.fsync_stalls");
      Watchdog.observe_fsync ~ms:5.0;
      Alcotest.(check int) "slow fsync: W301 counted" (before + 1)
        (Metrics.find_counter "watchdog.fsync_stalls");
      Watchdog.set_fsync_stall_ms saved)

let test_watchdog_evolution_budget () =
  quiet_warnings (fun () ->
      let before = Metrics.find_counter "watchdog.slow_evolutions" in
      let saved = Watchdog.evolve_budget_ms () in
      Watchdog.set_evolve_budget_ms 0.1;
      let v =
        Watchdog.time_evolution ~view:"t" (fun () ->
            Unix.sleepf 0.002;
            41 + 1)
      in
      Alcotest.(check int) "thunk result passes through" 42 v;
      Alcotest.(check int) "over budget: W302 counted" (before + 1)
        (Metrics.find_counter "watchdog.slow_evolutions");
      (* the wrapper records and re-raises *)
      (match
         Watchdog.time_evolution ~view:"t" (fun () ->
             Unix.sleepf 0.002;
             failwith "boom")
       with
      | exception Failure _ -> ()
      | _ -> Alcotest.fail "exception swallowed");
      Alcotest.(check int) "failed evolution still recorded" (before + 2)
        (Metrics.find_counter "watchdog.slow_evolutions");
      Watchdog.set_evolve_budget_ms saved)

let test_watchdog_fuel_pressure () =
  quiet_warnings (fun () ->
      let before = Metrics.find_counter "watchdog.fuel_pressure" in
      Watchdog.fuel_pressure ~what:"test";
      Alcotest.(check int) "W303 counted" (before + 1)
        (Metrics.find_counter "watchdog.fuel_pressure"))

let suite =
  [
    Alcotest.test_case "percentiles: uniform grid" `Quick test_percentile_uniform;
    Alcotest.test_case "percentiles: empty and +inf" `Quick
      test_percentile_edges;
    Alcotest.test_case "percentiles: registry handle + snapshot" `Quick
      test_percentile_registry_handle;
    Alcotest.test_case "sampler: counter rates in a ring" `Quick
      test_sampler_counter_rates;
    Alcotest.test_case "sampler: reset clamps rates" `Quick
      test_sampler_reset_clamps;
    Alcotest.test_case "sampler: gauges and quantile series" `Quick
      test_sampler_gauge_and_quantiles;
    Alcotest.test_case "sampler: multi-domain hammer" `Quick
      test_sampler_hammer_multidomain;
    Qcheck_det.to_alcotest prop_sampler_monotone_nonneg;
    Alcotest.test_case "timeseries: json shape" `Quick test_timeseries_json_shape;
    Alcotest.test_case "server: /metrics exposition" `Quick
      test_server_metrics_endpoint;
    Alcotest.test_case "server: /series, /rates, 404" `Quick
      test_server_series_and_rates;
    Alcotest.test_case "server: request-line parsing" `Quick test_path_of_request;
    Qcheck_det.to_alcotest prop_path_of_request_total;
    Alcotest.test_case "server: unix socket" `Quick test_server_unix_socket;
    Alcotest.test_case "server: idle client cannot stall a scrape" `Quick
      test_server_idle_client_cannot_stall;
    Alcotest.test_case "watchdog: fsync stall (W301)" `Quick
      test_watchdog_fsync_stall;
    Alcotest.test_case "watchdog: evolution budget (W302)" `Quick
      test_watchdog_evolution_budget;
    Alcotest.test_case "watchdog: fuel pressure (W303)" `Quick
      test_watchdog_fuel_pressure;
  ]
