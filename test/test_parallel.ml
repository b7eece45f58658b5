(* Parallel ≡ sequential oracle.  Every parallel path of the OID-sharded
   execution layer — compiled select/count scans, the snapshot encoder
   and the WAL scanner — must be observationally identical to the
   sequential implementation at every domain count.  The sequential
   side always runs on a size-1 pool (which spawns nothing and is
   bit-identical to the pre-parallel code); the parallel side drops the
   work-size threshold to 1 so even these small fixtures take the
   sharded paths. *)

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

(* Stale memberships: direct heap writes to every integer slot of every
   implementation object bypass [Database.set_attr]'s eager
   reclassification, so memberships go stale; [reclassify_all], which
   starts from cold verdict memos, must repair every one. Bulk
   reclassification has no parallel path; this is what remains of its
   parallel == sequential oracle. *)
let stale_db seed =
  let rs = Random_schema.generate ~seed ~classes:5 ~objects:120 ~virtuals:6 () in
  let heap = Database.heap rs.db in
  List.iteri
    (fun i o ->
      List.iter
        (fun c ->
          match Tse_objmodel.Slicing.impl_of (Database.model rs.db) o c with
          | None -> ()
          | Some impl ->
            List.iteri
              (fun j (k, v) ->
                match v with
                | Value.Int _ -> Heap.set_slot heap impl k (Value.Int (((i * 17) + (j * 31)) mod 100))
                | _ -> ())
              (Heap.slots heap impl))
        (Database.member_classes rs.db o))
    (Database.objects rs.db);
  rs.db

let stale_seeds = ref 0

let prop_reclassify =
  QCheck.Test.make ~name:"reclassify_all repairs direct heap writes" ~count:40
    seed_arb (fun seed ->
      let db = stale_db seed in
      if Database.check db <> [] then incr stale_seeds;
      Database.reclassify_all db;
      match Database.check db with
      | [] -> true
      | p ->
        QCheck.Test.fail_reportf "inconsistent after reclassify:@.%s"
          (String.concat "\n" p))

(* Some of the stale databases must be inconsistent before the repair, or
   the property above proves nothing. *)
let reclassify_case =
  let name, speed, run = Qcheck_det.to_alcotest prop_reclassify in
  ( name,
    speed,
    fun () ->
      stale_seeds := 0;
      run ();
      Alcotest.(check bool) "some writes made memberships stale" true (!stale_seeds > 0) )

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
  [
    Qcheck_det.to_alcotest prop_select_count;
    reclassify_case;
    Qcheck_det.to_alcotest prop_snapshot;
    Qcheck_det.to_alcotest prop_wal;
  ]
