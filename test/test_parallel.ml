(* Parallel ≡ sequential oracle.  Every parallel path of the OID-sharded
   execution layer — compiled select/count scans, two-phase
   reclassification, the snapshot encoder and the WAL scanner — must be
   observationally identical to the sequential implementation at every
   domain count.  The sequential side always runs on a size-1 pool
   (which spawns nothing and is bit-identical to the pre-parallel
   code); the parallel side drops the work-size threshold to 1 so even
   these small fixtures take the sharded paths. *)

open Tse_store
open Tse_schema
open Tse_db
module Pool = Tse_pool.Pool
module Engine = Tse_query.Engine
module Indexes = Tse_query.Indexes
module Random_schema = Tse_workload.Random_schema
module Snapshot = Tse_store.Snapshot
module Wal = Tse_store.Wal

let domain_counts = [ 2; 3; 4 ]

(* Run [f ()] sequentially, then once per parallel domain count with the
   threshold floored, restoring the global pool afterwards. *)
let sequential_then_parallel f =
  let thr = Pool.threshold () in
  Fun.protect
    ~finally:(fun () ->
      Pool.set_global_size (Pool.default_domains ());
      Pool.set_threshold thr)
    (fun () ->
      Pool.set_threshold max_int;
      Pool.set_global_size 1;
      let baseline = f () in
      Pool.set_threshold 1;
      List.map
        (fun d ->
          Pool.set_global_size d;
          (d, f ()))
        domain_counts
      |> fun results -> (baseline, results))

let seed_arb = QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 10_000)

(* ---------------------------------------------------------------- *)
(* select / count                                                    *)
(* ---------------------------------------------------------------- *)

let prop_select_count =
  QCheck.Test.make ~name:"parallel select/count == sequential" ~count:15
    seed_arb (fun seed ->
      let rs =
        Random_schema.generate ~seed ~classes:6 ~objects:150 ~virtuals:5 ()
      in
      let rng = Random.State.make [| seed; 1 |] in
      let preds =
        List.filter_map
          (fun _ ->
            let cid = Random_schema.random_class rng rs in
            match Random_schema.random_attr rng rs cid with
            | None -> None
            | Some a ->
              let k = Random.State.int rng 100 in
              let pred =
                if Random.State.bool rng then Expr.(attr a >= int k)
                else Expr.(attr a < int k)
              in
              Some (cid, pred))
          [ (); (); (); (); () ]
      in
      let idx = Indexes.create rs.db in
      List.for_all
        (fun (cid, pred) ->
          let run () =
            ( Engine.select rs.db idx cid pred,
              Engine.count rs.db idx cid pred )
          in
          let (seq_set, seq_n), par = sequential_then_parallel run in
          List.for_all
            (fun (d, (set, n)) ->
              if not (Oid.Set.equal set seq_set) then
                QCheck.Test.fail_reportf
                  "select diverged at %d domains (seed %d)" d seed;
              if n <> seq_n then
                QCheck.Test.fail_reportf
                  "count diverged at %d domains: %d vs %d (seed %d)" d n
                  seq_n seed;
              true)
            par)
        preds)

(* ---------------------------------------------------------------- *)
(* reclassification                                                  *)
(* ---------------------------------------------------------------- *)

(* Stale twins: generate twin databases from one seed, apply identical
   *direct heap* slot writes to both (bypassing [Database.set_attr]'s
   eager reclassification, so memberships go stale), then repair one
   with a sequential [reclassify_all] and the other with the parallel
   engine.  Fingerprints — classes, extents, every slot of every
   object — must match, and both must pass the consistency oracle. *)
let stale_twin seed =
  let rs = Random_schema.generate ~seed ~classes:5 ~objects:120 ~virtuals:6 () in
  let heap = Database.heap rs.db in
  List.iteri
    (fun i o ->
      if i mod 3 = 0 then
        let slots = Heap.slots heap o in
        let ints =
          List.filter (fun (_, v) -> match v with Value.Int _ -> true | _ -> false) slots
        in
        match ints with
        | [] -> ()
        | _ ->
          let k, _ = List.nth ints (i mod List.length ints) in
          Heap.set_slot heap o k (Value.Int (i * 17 mod 100)))
    (Database.objects rs.db);
  rs.db

let prop_reclassify =
  QCheck.Test.make ~name:"parallel reclassify == sequential" ~count:10
    seed_arb (fun seed ->
      let run () =
        let db = stale_twin seed in
        Database.reclassify_all db;
        (match Database.check db with
        | [] -> ()
        | p ->
          QCheck.Test.fail_reportf "inconsistent after reclassify:@.%s"
            (String.concat "\n" p));
        Tse_core.Verify.db_fingerprint db
      in
      let seq_fp, par = sequential_then_parallel run in
      List.for_all
        (fun (d, fp) ->
          if not (String.equal fp seq_fp) then
            QCheck.Test.fail_reportf
              "reclassify diverged at %d domains (seed %d)" d seed;
          true)
        par)

(* ---------------------------------------------------------------- *)
(* snapshot encoder                                                  *)
(* ---------------------------------------------------------------- *)

let prop_snapshot =
  QCheck.Test.make ~name:"parallel snapshot codec == sequential" ~count:10
    seed_arb (fun seed ->
      let rs =
        Random_schema.generate ~seed ~classes:4 ~objects:200 ~virtuals:3 ()
      in
      let heap = Database.heap rs.db in
      let enc, par_encs = sequential_then_parallel (fun () -> Snapshot.to_string heap) in
      List.for_all
        (fun (d, s) ->
          if not (String.equal s enc) then
            QCheck.Test.fail_reportf "snapshot encode diverged at %d domains" d;
          true)
        par_encs)

(* ---------------------------------------------------------------- *)
(* WAL scanner                                                       *)
(* ---------------------------------------------------------------- *)

let wal_log seed =
  let rng = Random.State.make [| seed; 2 |] in
  let buf = Buffer.create 1024 in
  for s = 1 to 40 do
    let entries =
      List.init
        (1 + Random.State.int rng 4)
        (fun i ->
          match Random.State.int rng 3 with
          | 0 -> Wal.Op (Heap.Set_slot (Oid.of_int i, "a", Value.Int s))
          | 1 -> Wal.Gen (s * 10)
          | _ -> Wal.Ext ("k", Printf.sprintf "payload-%d-%d" s i))
    in
    Buffer.add_string buf (Wal.encode_record ~seq:s entries)
  done;
  Buffer.contents buf

let scan_digest (sc : Wal.scan) =
  Printf.sprintf "batches=%d valid=%d file=%d reason=%s"
    (List.length sc.Wal.batches)
    sc.Wal.valid_len sc.Wal.file_len
    (Option.value ~default:"-" sc.Wal.reason)
  ^ String.concat ""
      (List.map
         (fun (b : Wal.batch) ->
           Printf.sprintf ";%d@%d:%d" b.Wal.seq b.Wal.start_off
             (List.length b.Wal.entries))
         sc.Wal.batches)

let prop_wal =
  QCheck.Test.make ~name:"parallel WAL scan == sequential" ~count:10 seed_arb
    (fun seed ->
      let log = wal_log seed in
      let check s =
        let seq, par = sequential_then_parallel (fun () -> scan_digest (Wal.scan_string s)) in
        List.iter
          (fun (d, dg) ->
            if not (String.equal dg seq) then
              QCheck.Test.fail_reportf
                "WAL scan diverged at %d domains:@.%s@.vs@.%s" d dg seq)
          par
      in
      check log;
      (* torn tail *)
      check (String.sub log 0 (String.length log - 7));
      (* corrupt byte mid-log: CRC failure position must agree *)
      let b = Bytes.of_string log in
      Bytes.set b (Bytes.length b / 2) '\xff';
      check (Bytes.to_string b);
      true)

let suite =
  List.map Qcheck_det.to_alcotest
    [ prop_select_count; prop_reclassify; prop_snapshot; prop_wal ]
