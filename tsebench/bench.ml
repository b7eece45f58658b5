(* Shared plumbing for the workloads: the clock, per-op latency samples,
   the bench-side spans, and the counter brackets the traced run puts
   around every call into the library. *)

module Trace = Tse_obs.Trace
module Metrics = Tse_obs.Metrics

let now = Unix.gettimeofday

(* Registry counters the traced run attributes to the op that moved
   them. A name the registry does not know is reported as absent. *)
let watched =
  [|
    "reclass.objects_visited";
    "reclass.formula_evals";
    "reclass.verdict_memo_hits";
    "heap.slot_reads";
    "wal.fsyncs";
    "wal.bytes_framed";
    "query.rows_scanned";
    "query.rows_returned";
    "query.plan_cache_hits";
    "query.plan_cache_misses";
    "query.index_lookups";
    "query.range_scans";
    "query.extent_scans";
  |]

type t = {
  trace : bool;
  present : bool array;  (** which [watched] counters are registered *)
  handles : Metrics.counter option array;
  samples : (string, float list ref) Hashtbl.t;  (** op -> seconds *)
  deltas : (string, int array) Hashtbl.t;  (** op -> counter deltas *)
  mutable in_phase : bool;
  mutable timed_s : float;  (** wall time of the timed phases *)
  mutable untimed_s : float;  (** bench checks inside them *)
  mutable minor_words : float;  (** allocated during the timed phases *)
  mutable major_collections : int;
  mutable attempted : int;
  mutable failed : int;
  mutable failures : string list;
}

let create ~trace =
  let registered =
    List.map (fun s -> s.Metrics.s_name) (Metrics.snapshot ())
  in
  let present = Array.map (fun n -> List.mem n registered) watched in
  {
    trace;
    present;
    handles =
      Array.mapi
        (fun i n -> if present.(i) then Some (Metrics.counter n) else None)
        watched;
    samples = Hashtbl.create 8;
    deltas = Hashtbl.create 8;
    in_phase = false;
    timed_s = 0.;
    untimed_s = 0.;
    minor_words = 0.;
    major_collections = 0;
    attempted = 0;
    failed = 0;
    failures = [];
  }

let read b =
  Array.map (function Some h -> Metrics.counter_value h | None -> 0) b.handles

let record b name dt =
  match Hashtbl.find_opt b.samples name with
  | Some l -> l := dt :: !l
  | None -> Hashtbl.replace b.samples name (ref [ dt ])

let accumulate b name c0 c1 =
  let acc =
    match Hashtbl.find_opt b.deltas name with
    | Some a -> a
    | None ->
      let a = Array.make (Array.length watched) 0 in
      Hashtbl.replace b.deltas name a;
      a
  in
  Array.iteri (fun i v -> acc.(i) <- acc.(i) + (v - c0.(i))) c1

(* One timed call into the library: its latency becomes a sample of
   [name], and in the traced run it is a [bench.<name>] span whose
   counter deltas are charged to [name]. *)
let op ?tag b name f =
  if b.trace then begin
    let c0 = read b in
    let t0 = now () in
    let v = Trace.with_span ("bench." ^ name) f in
    let dt = now () -. t0 in
    record b name dt;
    accumulate b (Option.value tag ~default:name) c0 (read b);
    v
  end
  else begin
    let t0 = now () in
    let v = f () in
    record b name (now () -. t0);
    v
  end

(* Bench-side work inside a timed phase (the correctness checks): not a
   sample, but spanned and accounted so the phase's wall time is
   covered. *)
let aside b name f =
  let t0 = now () in
  let v = Trace.with_span ("bench." ^ name) f in
  if b.in_phase then b.untimed_s <- b.untimed_s +. (now () -. t0);
  v

let phase b f =
  let g0 = Gc.quick_stat () in
  let t0 = now () in
  b.in_phase <- true;
  let v = Fun.protect ~finally:(fun () -> b.in_phase <- false) f in
  b.timed_s <- b.timed_s +. (now () -. t0);
  let g1 = Gc.quick_stat () in
  b.minor_words <- b.minor_words +. (g1.Gc.minor_words -. g0.Gc.minor_words);
  b.major_collections <-
    b.major_collections + (g1.Gc.major_collections - g0.Gc.major_collections);
  v

(* Timed ops per second of the timed phases, not counting the bench's
   own checks inside them. *)
let ops_per_s b ops = float ops /. (b.timed_s -. b.untimed_s)

let attempt b = b.attempted <- b.attempted + 1

let fail b fmt =
  Printf.ksprintf
    (fun msg ->
      b.failed <- b.failed + 1;
      if List.length b.failures < 20 then b.failures <- msg :: b.failures)
    fmt

(* Every op is attempted; the ones that raise are failures. *)
let guarded ?tag b name f =
  attempt b;
  match op ?tag b name f with
  | v -> Some v
  | exception e ->
    fail b "%s: %s" name (Printexc.to_string e);
    None

let check b what ok =
  attempt b;
  if not ok then fail b "check failed: %s" what

let samples b name =
  match Hashtbl.find_opt b.samples name with
  | Some l -> Array.of_list !l
  | None -> [||]

let count b name = Array.length (samples b name)

let counter_delta b op name =
  let rec idx i =
    if i >= Array.length watched then None
    else if String.equal watched.(i) name then Some i
    else idx (i + 1)
  in
  match idx 0 with
  | Some i when b.present.(i) ->
    Some
      (match Hashtbl.find_opt b.deltas op with Some a -> a.(i) | None -> 0)
  | _ -> None

(* Nearest-rank quantile of a sample set. *)
let quantile xs p =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float n)) - 1)))

let median xs = quantile (Array.of_list xs) 0.5

(* The workloads' result: what the end-to-end metrics are made of. *)
type report = {
  setups : float list;  (** seconds, one per set-up *)
  headline : string;  (** op whose latency is [op_ms_p50]/[op_ms_tail] *)
  tail : float;  (** the percentile [op_ms_tail] reports *)
  ops : int;  (** timed ops completed *)
  detail : (string * float * string) list;
      (** the workload's own end-to-end numbers (name, value, unit) *)
  layer : (string * float) list;  (** per-layer values only it can see *)
}
