(* durable_evolve: WAL-logged evolution over a populated durable database,
   each step ending in a crash-restart.

   Each round opens a fresh directory, loads the university schema with
   1000 objects and checkpoints. Then every step makes a few data
   commits, applies one change of a seeded {!Gen} chain through
   [Durable_tse.evolve], checkpoints every [checkpoint_every] steps, and
   finally syncs, drops the handle as a crash would ([abandon]) and times
   [Durable_tse.open_dir]. The reopened database must show the same view
   version and the same [Verify.db_fingerprint] as before the crash. *)

open Tse_core
module Database = Tse_db.Database
module Generic = Tse_update.Generic
module Value = Tse_store.Value

let objects = 1000
let steps_per_round = 50
let commits_per_step = 3
let checkpoint_every = 10
let min_rounds = 2
let setup_reps = 5

let user_bytes = objects * Univ.user_bytes_per_object

let setup ~dir =
  Univ.remove_tree dir;
  let t, _ = Durable_tse.open_dir ~policy:Univ.policy ~dir () in
  let cids = Univ.build t in
  ignore (Durable_tse.define_view_by_names t ~name:"main" Univ.names);
  let pools = Univ.populate t cids ~n:objects in
  Durable_tse.checkpoint t;
  (t, pools)

let run b ~seed ~seconds ~dir =
  let deadline = Bench.now () +. seconds in
  let rng = Random.State.make [| 0xd0e; seed |] in
  let setups = ref [] and stored = ref [] and last = ref None and snapshot = ref 0 in
  let rec rounds r =
    (* set-up is timed over a few repetitions: one takes tens of ms *)
    for _ = 2 to setup_reps do
      let t0 = Bench.now () in
      Durable_tse.close (fst (setup ~dir));
      setups := (Bench.now () -. t0) :: !setups
    done;
    Gc.compact ();
    let t0 = Bench.now () in
    let t, pools = setup ~dir in
    setups := (Bench.now () -. t0) :: !setups;
    let t = ref t in
    let chain = Gen.chain ~seed:((seed * 7919) + r) steps_per_round in
    Bench.phase b (fun () ->
        List.iteri
          (fun step change ->
            for _ = 1 to commits_per_step do
              let pool = pools.(Random.State.int rng (Array.length pools)) in
              let o = Univ.Pool.pick pool rng in
              let v = Value.Int (18 + Random.State.int rng 50) in
              let db = Durable_tse.db !t in
              ignore
                (Bench.guarded b "update" (fun () -> Generic.set db [ o ] [ ("age", v) ]));
              ignore (Bench.guarded b "commit" (fun () -> Durable_tse.commit !t))
            done;
            (match Bench.guarded b "evolve" (fun () -> Durable_tse.evolve !t ~view:"main" change) with
            | Some (Error msg) -> Bench.fail b "evolve rejected: %s" msg
            | Some (Ok _) | None -> ());
            if (step + 1) mod checkpoint_every = 0 then
              ignore (Bench.guarded b "checkpoint" (fun () -> Durable_tse.checkpoint !t));
            Durable_tse.sync !t;
            let version = (Durable_tse.current !t "main").Tse_views.View_schema.version in
            let fp = Bench.aside b "check" (fun () -> Univ.fingerprint !t) in
            Durable_tse.abandon !t;
            match Bench.guarded b "reopen" (fun () -> Durable_tse.open_dir ~policy:Univ.policy ~dir ()) with
            | None -> ()
            | Some (t', _report) ->
              t := t';
              Bench.check b "durable_evolve: view version survives restart"
                ((Durable_tse.current t' "main").Tse_views.View_schema.version = version);
              Bench.check b "durable_evolve: db_fingerprint survives restart"
                (Bench.aside b "check" (fun () -> Digest.equal fp (Univ.fingerprint t'))))
          chain);
    stored := float (Univ.file_bytes dir) /. float user_bytes :: !stored;
    snapshot := Univ.snapshot_bytes dir;
    last := Some !t;
    if r + 1 < min_rounds || Bench.now () < deadline then begin
      Durable_tse.close !t;
      rounds (r + 1)
    end
  in
  rounds 0;
  let t = Option.get !last in
  let history = Tse_views.History.total_versions (Durable_tse.history t) in
  let impl = Univ.impl_per_object (Durable_tse.db t) in
  Durable_tse.close t;
  Univ.remove_tree dir;
  let q name p scale = Bench.quantile (Bench.samples b name) p *. scale in
  {
    Bench.setups = List.rev !setups;
    headline = "reopen";
    tail = 0.9;
    ops = Bench.count b "reopen";
    detail =
      [
        ("evolve_ms_p50", q "evolve" 0.5 1e3, "ms");
        ("evolve_ms_p90", q "evolve" 0.9 1e3, "ms");
        ("reopen_ms_p50", q "reopen" 0.5 1e3, "ms");
        ("reopen_ms_p90", q "reopen" 0.9 1e3, "ms");
        ("stored_bytes_per_user_byte", Bench.median !stored, "ratio");
        ("reopens", float (Bench.count b "reopen"), "count");
      ];
    layer =
      [
        ("views.history_versions", float history);
        ("store.snapshot.bytes", float !snapshot);
        ("objmodel.impl_objects_per_object", impl);
      ];
  }
