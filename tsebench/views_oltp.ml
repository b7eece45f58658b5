(* views_oltp: data traffic through two view versions of one durable
   database.

   Set-up loads the university schema with 10^4 objects, evolves the view
   16 times (alternating [Add_attribute] and [Partition_class] on [age]),
   builds indexes and checkpoints. The timed mix, one closed-loop client:
   75% writes, 25% queries.

   - A write is [Generic.set] of the indexed [age] (a few are
     [Generic.create] or [Generic.delete]) followed by
     [Durable_tse.commit]. Half go through a version-0 class (an old
     program), half through the latest version of the same class (a new
     program).
   - A query is an [Engine.select] point probe on [ssn] of a version-0
     class, or an [Engine.count] of an [age] range on a partition class of
     the latest version.

   Every 16th query is re-checked against a brute-force
   [Database.holds] filter of the extent; at the end the database is
   closed, reopened and fingerprinted. *)

open Tse_core
module Oid = Tse_store.Oid
module Value = Tse_store.Value
module Expr = Tse_schema.Expr
module Database = Tse_db.Database
module Generic = Tse_update.Generic
module Engine = Tse_query.Engine
module Indexes = Tse_query.Indexes
module History = Tse_views.History
module View_schema = Tse_views.View_schema

let objects = 10_000
let setups = 3
let evolutions = 16
let check_every = 16

type state = {
  t : Durable_tse.t;
  pools : Univ.Pool.t array;  (** live objects by the class they were created in *)
  old_cids : Oid.t array;  (** version 0 of each university class *)
  new_cids : Oid.t array;  (** the latest version of the same classes *)
  parts : Oid.t array;  (** the partition classes of the latest version *)
  idx : Indexes.t;
}

let setup ~dir =
  Univ.remove_tree dir;
  let t, _ = Durable_tse.open_dir ~policy:Univ.policy ~dir () in
  let cids = Univ.build t in
  ignore (Durable_tse.define_view_by_names t ~name:"main" Univ.names);
  let pools = Univ.populate t cids ~n:objects in
  let n = Array.length cids in
  let part_names = ref [] in
  for i = 0 to evolutions - 1 do
    let cls = List.nth Univ.names (i / 2 mod n) in
    let change =
      if i mod 2 = 0 then
        Change.Add_attribute
          { cls; def = Change.attr ~default:(Value.Int 0) (Printf.sprintf "x%d" i) Value.TInt }
      else begin
        let hi = Printf.sprintf "Hi%d" i and lo = Printf.sprintf "Lo%d" i in
        part_names := hi :: lo :: !part_names;
        Change.Partition_class
          {
            cls;
            (* thresholds spread evenly over the ages the traffic writes *)
            predicate = Expr.(attr "age" >= int (21 + (6 * (i / 2))));
            into_true = hi;
            into_false = lo;
          }
      end
    in
    match Durable_tse.evolve t ~view:"main" change with
    | Ok _ -> ()
    | Error msg -> failwith ("views_oltp set-up: " ^ msg)
  done;
  let db = Durable_tse.db t in
  let history = Durable_tse.history t in
  let v0 = Option.get (History.version history "main" 0) in
  let vn = Durable_tse.current t "main" in
  let old_cids = Array.of_list (List.map (View_schema.cid_of_exn v0) Univ.names) in
  let new_cids = Array.of_list (List.map (View_schema.cid_of_exn vn) Univ.names) in
  let parts = Array.of_list (List.rev_map (View_schema.cid_of_exn vn) !part_names) in
  let idx = Indexes.create db in
  Array.iter (fun c -> Indexes.ensure ~kind:Indexes.Hash idx c "ssn") old_cids;
  Array.iter (fun c -> Indexes.ensure ~kind:Indexes.Ordered idx c "age") parts;
  Durable_tse.checkpoint t;
  { t; pools; old_cids; new_cids; parts; idx }

let brute db cid pred =
  Oid.Set.filter (fun o -> Database.holds db o pred) (Database.extent db cid)

let run b ~seed ~seconds ~dir =
  let times = ref [] and st = ref None in
  for _ = 1 to setups do
    (match !st with Some s -> Durable_tse.close s.t | None -> ());
    st := None;
    Gc.compact ();
    let t0 = Bench.now () in
    st := Some (setup ~dir);
    times := (Bench.now () -. t0) :: !times
  done;
  let s = Option.get !st in
  let db = Durable_tse.db s.t in
  let rng = Random.State.make [| 0x0f1; seed |] in
  let live = ref (Array.fold_left (fun acc p -> acc + p.Univ.Pool.n) 0 s.pools) in
  let next_id = ref objects and queries = ref 0 in
  let n = Array.length s.old_cids in
  let through k = if Random.State.bool rng then s.old_cids.(k) else s.new_cids.(k) in
  let write f =
    let t0 = Bench.now () in
    let ok = Bench.guarded b "update" f <> None in
    let ok = ok && Bench.guarded b "commit" (fun () -> Durable_tse.commit s.t) <> None in
    if ok then Bench.record b "write" (Bench.now () -. t0)
  in
  let query () =
    incr queries;
    let verify = !queries mod check_every = 0 in
    if Random.State.bool rng then begin
      (* a set-up object, through the class it was created in (it may
         have been deleted since: an empty answer is an answer too) *)
      let i = Random.State.int rng objects in
      let k = i mod n and ssn = Univ.ssn i in
      let cid = s.old_cids.(k) and pred = Expr.(attr "ssn" === int ssn) in
      match Bench.guarded ~tag:"select" b "query" (fun () -> Engine.select db s.idx cid pred) with
      | Some got when verify ->
        Bench.check b "views_oltp: select equals brute force"
          (Bench.aside b "check" (fun () -> Oid.Set.equal got (brute db cid pred)))
      | _ -> ()
    end
    else begin
      let cid = s.parts.(Random.State.int rng (Array.length s.parts)) in
      let lo = 18 + Random.State.int rng 45 in
      let pred = Expr.(attr "age" >= int lo && attr "age" < int (lo + 5)) in
      match Bench.guarded ~tag:"count" b "query" (fun () -> Engine.count db s.idx cid pred) with
      | Some got when verify ->
        Bench.check b "views_oltp: count equals brute force"
          (Bench.aside b "check" (fun () -> got = Oid.Set.cardinal (brute db cid pred)))
      | _ -> ()
    end
  in
  let deadline = Bench.now () +. seconds in
  Bench.phase b (fun () ->
      while Bench.now () < deadline do
        match Random.State.int rng 100 with
        | r when r < 70 ->
          let k = Random.State.int rng n in
          let pool = s.pools.(k) in
          if pool.Univ.Pool.n > 0 then begin
            let o = Univ.Pool.pick pool rng in
            let v = Value.Int (18 + Random.State.int rng 50) in
            let through = through k in
            write (fun () -> Generic.set ~through db [ o ] [ ("age", v) ])
          end
        | r when r < 73 ->
          let k = Random.State.int rng n in
          let id = !next_id in
          incr next_id;
          let through = through k in
          write (fun () ->
              Univ.Pool.add s.pools.(k) (Generic.create db through ~init:(Univ.attrs id));
              incr live)
        | r when r < 75 ->
          let pool = s.pools.(Random.State.int rng n) in
          if pool.Univ.Pool.n > 0 then begin
            let o = Univ.Pool.take pool rng in
            write (fun () ->
                Generic.delete db [ o ];
                decr live)
          end
        | _ -> query ()
      done);
  let stored =
    float (Univ.file_bytes dir) /. float (!live * Univ.user_bytes_per_object)
  in
  let history = History.total_versions (Durable_tse.history s.t) in
  let snapshot = Univ.snapshot_bytes dir in
  let impl = Univ.impl_per_object db in
  let fp = Bench.aside b "check" (fun () -> Univ.fingerprint s.t) in
  Durable_tse.close s.t;
  let t', _ = Durable_tse.open_dir ~policy:Univ.policy ~dir () in
  Bench.check b "views_oltp: db_fingerprint survives close and reopen"
    (Bench.aside b "check" (fun () -> Digest.equal fp (Univ.fingerprint t')));
  Durable_tse.close t';
  Univ.remove_tree dir;
  let q name p scale = Bench.quantile (Bench.samples b name) p *. scale in
  let writes = Bench.count b "write" and nq = Bench.count b "query" in
  {
    Bench.setups = List.rev !times;
    headline = "write";
    (* one commit in 8 pays the group fsync: p99 reads the disk's own
       outliers, too noisy to gate on; p90 still sits among the fsyncs *)
    tail = 0.9;
    ops = writes + nq;
    detail =
      [
        ("write_us_p50", q "write" 0.5 1e6, "us");
        ("write_us_p90", q "write" 0.9 1e6, "us");
        ("write_us_p99", q "write" 0.99 1e6, "us");
        ("query_us_p50", q "query" 0.5 1e6, "us");
        ("query_us_p99", q "query" 0.99 1e6, "us");
        ("stored_bytes_per_user_byte", stored, "ratio");
        ("writes", float writes, "count");
        ("queries", float nq, "count");
      ];
    layer =
      [
        ("views.history_versions", float history);
        ("store.snapshot.bytes", float snapshot);
        ("objmodel.impl_objects_per_object", impl);
      ];
  }
