(* Tests for the durability layer: WAL framing and scanning, recovery
   replay, durable open/commit/checkpoint, and the fault-injection crash
   matrix that kills writes at every declared failpoint and proves the
   store reopens consistent. *)

open Tse_store
module Prop = Tse_schema.Prop
module Schema_graph = Tse_schema.Schema_graph
module Schema_codec = Tse_schema.Schema_codec
module Database = Tse_db.Database
module Durable = Tse_db.Durable

let check = Alcotest.check

(* ---------------- helpers ---------------- *)

let fresh_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "tse_durable_%d_%d" (Unix.getpid ()) !counter)
    in
    if Sys.file_exists dir then begin
      Array.iter
        (fun f -> Sys.remove (Filename.concat dir f))
        (Sys.readdir dir);
      Unix.rmdir dir
    end;
    dir

(* A deterministic image of everything durability must preserve: the
   schema, the explicit base memberships, and the physical heap. *)
let fingerprint db =
  let bases =
    List.map
      (fun o ->
        Oid.to_string o ^ ":"
        ^ String.concat ","
            (List.map Oid.to_string
               (Oid.Set.elements (Database.base_membership db o))))
      (List.sort Oid.compare (Database.objects db))
  in
  Schema_codec.encode_graph (Database.graph db)
  ^ "\n--\n" ^ String.concat ";" bases ^ "\n--\n"
  ^ Snapshot.to_string (Database.heap db)

let stored = Prop.stored ~origin:(Oid.of_int 0)

let reg db name props supers =
  let cid = Schema_graph.register_base (Database.graph db) ~name ~props ~supers in
  Database.note_new_class db cid;
  cid

(* Person <- Student plus one person, one student. *)
let build_small db =
  let person =
    reg db "Person" [ stored "name" Value.TString; stored "age" Value.TInt ] []
  in
  let student = reg db "Student" [ stored "gpa" Value.TFloat ] [ person ] in
  let o1 =
    Database.create_object db person
      ~init:[ ("name", Value.String "ann"); ("age", Value.Int 30) ]
  in
  let o2 =
    Database.create_object db student
      ~init:[ ("name", Value.String "bob"); ("gpa", Value.Float 3.5) ]
  in
  (person, student, o1, o2)

let assert_consistent what db =
  match Database.check db with
  | [] -> ()
  | problems -> Alcotest.failf "%s: inconsistent: %s" what (String.concat "; " problems)

(* ---------------- WAL framing ---------------- *)

let sample_records () =
  let o = Oid.of_int 1 in
  let r1 =
    Wal.encode_record ~seq:1
      [
        Wal.Op (Heap.Alloc (o, "T"));
        Wal.Op (Heap.Set_slot (o, "x", Value.Int 7));
        Wal.Op (Heap.Set_tag (o, "U"));
        Wal.Gen 5;
        Wal.Ext ("schema", "opaque blob \n with newline");
      ]
  in
  let r2 =
    Wal.encode_record ~seq:2
      [ Wal.Op (Heap.Remove_slot (o, "x")); Wal.Op (Heap.Free o) ]
  in
  (r1, r2)

let test_wal_scan_roundtrip () =
  let r1, r2 = sample_records () in
  let scan = Wal.scan_string (r1 ^ r2) in
  check Alcotest.int "two batches" 2 (List.length scan.Wal.batches);
  Alcotest.(check (option string)) "clean tail" None scan.Wal.reason;
  check Alcotest.int "all bytes valid"
    (String.length r1 + String.length r2)
    scan.Wal.valid_len;
  check (Alcotest.list Alcotest.int) "seqs" [ 1; 2 ]
    (List.map (fun b -> b.Wal.seq) scan.Wal.batches);
  (* re-encoding every decoded batch reproduces the exact bytes *)
  let reencoded =
    String.concat ""
      (List.map
         (fun b -> Wal.encode_record ~seq:b.Wal.seq b.Wal.entries)
         scan.Wal.batches)
  in
  check Alcotest.string "decode/encode identity" (r1 ^ r2) reencoded

let test_wal_torn_tail () =
  let r1, r2 = sample_records () in
  let torn = r1 ^ String.sub r2 0 (String.length r2 - 3) in
  let scan = Wal.scan_string torn in
  check Alcotest.int "only the whole record survives" 1
    (List.length scan.Wal.batches);
  check Alcotest.int "valid prefix ends at record boundary"
    (String.length r1) scan.Wal.valid_len;
  Alcotest.(check bool) "has a reason" true (scan.Wal.reason <> None);
  (* a tail torn inside the header is reported too *)
  let torn_header = r1 ^ String.sub r2 0 3 in
  let scan = Wal.scan_string torn_header in
  check Alcotest.int "torn header: record dropped" 1
    (List.length scan.Wal.batches);
  check Alcotest.int "torn header: valid prefix" (String.length r1)
    scan.Wal.valid_len

let test_wal_checksum_corruption () =
  let r1, r2 = sample_records () in
  let s = Bytes.of_string (r1 ^ r2) in
  (* flip a byte inside the second record's payload *)
  let pos = String.length r1 + 8 + 1 in
  Bytes.set s pos (Char.chr (Char.code (Bytes.get s pos) lxor 0xff));
  let scan = Wal.scan_string (Bytes.to_string s) in
  check Alcotest.int "corrupt record dropped" 1 (List.length scan.Wal.batches);
  Alcotest.(check (option string)) "checksum mismatch detected"
    (Some "checksum mismatch") scan.Wal.reason;
  check Alcotest.int "valid prefix" (String.length r1) scan.Wal.valid_len

let test_wal_truncate_file () =
  let r1, r2 = sample_records () in
  let path = Filename.temp_file "tse_wal" ".log" in
  let oc = open_out_bin path in
  output_string oc (r1 ^ String.sub r2 0 (String.length r2 - 1));
  close_out oc;
  let scan = Wal.scan_file ~path in
  Alcotest.(check bool) "dirty" true (scan.Wal.reason <> None);
  Wal.truncate_file ~path scan.Wal.valid_len;
  let scan = Wal.scan_file ~path in
  Alcotest.(check (option string)) "clean after truncation" None scan.Wal.reason;
  check Alcotest.int "file cut back" (String.length r1) scan.Wal.file_len;
  Sys.remove path

(* ---------------- durable open/commit/reopen ---------------- *)

let test_durable_roundtrip () =
  let dir = fresh_dir () in
  let d, _ = Durable.open_dir ~dir () in
  let db = Durable.db d in
  let _, student, o1, _ = build_small db in
  Database.set_attr db o1 "age" (Value.Int 31);
  Durable.commit d;
  let fp = fingerprint db in
  Durable.close d;
  let d2, report = Durable.open_dir ~dir () in
  let db2 = Durable.db d2 in
  check Alcotest.int "one batch replayed" 1 report.Recovery.batches_applied;
  Alcotest.(check bool) "entries replayed" true
    (report.Recovery.entries_applied > 0);
  check Alcotest.string "state identical" fp (fingerprint db2);
  assert_consistent "reopened" db2;
  check Alcotest.int "student extent survived" 1
    (Database.extent_size db2 student);
  Durable.close d2

let test_durable_uncommitted_lost () =
  let dir = fresh_dir () in
  (* pinned: the assertion is precisely that an Every_commit commit is
     durable the moment it returns; under a grouped policy the same crash
     may also lose the commit itself (covered by the group tests below) *)
  let d, _ = Durable.open_dir ~policy:Durable.Every_commit ~dir () in
  let db = Durable.db d in
  let person, _, o1, _ = build_small db in
  Durable.commit d;
  let committed = fingerprint db in
  (* changes after the last commit must not survive a crash *)
  Database.set_attr db o1 "age" (Value.Int 99);
  ignore (Database.create_object db person ~init:[ ("age", Value.Int 1) ]);
  (* simulate the crash: abandon the handle without closing *)
  let d2, _ = Durable.open_dir ~dir () in
  check Alcotest.string "only the committed state survives" committed
    (fingerprint (Durable.db d2));
  assert_consistent "reopened" (Durable.db d2);
  Durable.close d2

let test_durable_incremental_commits () =
  let dir = fresh_dir () in
  let d, _ = Durable.open_dir ~dir () in
  let db = Durable.db d in
  let person, student, o1, o2 = build_small db in
  Durable.commit d;
  (* second commit: schema growth + membership changes + a destroy *)
  let staff = reg db "Staff" [ stored "salary" Value.TInt ] [ person ] in
  Database.add_base_membership db o1 staff;
  Database.set_attr db o1 "salary" (Value.Int 100);
  Database.destroy_object db o2;
  Durable.commit d;
  let fp = fingerprint db in
  Durable.close d;
  let d2, report = Durable.open_dir ~dir () in
  let db2 = Durable.db d2 in
  check Alcotest.int "two batches" 2 report.Recovery.batches_applied;
  check Alcotest.string "state identical" fp (fingerprint db2);
  assert_consistent "reopened" db2;
  Alcotest.(check bool) "destroyed object stays gone" false
    (Database.mem_object db2 o2);
  Alcotest.(check bool) "added membership survives" true
    (Oid.Set.mem staff (Database.base_membership db2 o1));
  check Alcotest.int "staff extent" 1 (Database.extent_size db2 staff);
  Alcotest.(check bool) "schema class survives" true
    (Schema_graph.find_by_name (Database.graph db2) "Staff" <> None);
  (* fresh OIDs must not collide with replayed ones *)
  let o3 = Database.create_object db2 person ~init:[] in
  Alcotest.(check bool) "no oid collision" true
    (List.for_all (fun o -> not (Oid.equal o o3)) [ o1; o2 ]);
  check Alcotest.int "student extent after destroy" 0
    (Database.extent_size db2 student);
  Durable.close d2

let test_durable_checkpoint () =
  let dir = fresh_dir () in
  let d, _ = Durable.open_dir ~dir () in
  let db = Durable.db d in
  let person, _, o1, _ = build_small db in
  Durable.commit d;
  Durable.checkpoint d;
  check Alcotest.int "log folded away" 0
    (Unix.stat (Filename.concat dir "wal")).Unix.st_size;
  (* keep writing after the checkpoint *)
  Database.set_attr db o1 "age" (Value.Int 44);
  ignore (Database.create_object db person ~init:[ ("age", Value.Int 9) ]);
  Durable.commit d;
  let fp = fingerprint db in
  Durable.close d;
  let d2, report = Durable.open_dir ~dir () in
  check Alcotest.int "only the post-checkpoint batch replays" 1
    report.Recovery.batches_applied;
  check Alcotest.string "snapshot + tail = full state" fp
    (fingerprint (Durable.db d2));
  assert_consistent "reopened" (Durable.db d2);
  Durable.close d2

let test_durable_empty_commit_writes_nothing () =
  let dir = fresh_dir () in
  let d, _ = Durable.open_dir ~dir () in
  ignore (build_small (Durable.db d));
  Durable.commit d;
  let size () = (Unix.stat (Filename.concat dir "wal")).Unix.st_size in
  let before = size () in
  Durable.commit d;
  Durable.commit d;
  check Alcotest.int "no-change commits append nothing" before (size ());
  Durable.close d

(* ---------------- crash matrix ---------------- *)

(* Which state must survive a crash at the failpoint: the commit the
   fault interrupts (Pre = it is lost, Post = it is durable). Faults in
   the checkpoint path are always Post: the data was committed to the log
   before the snapshot write begins. *)
type expect = Pre | Post

(* The eager cases pin Every_commit (their failpoints live on that path);
   the group cases pin Group 1, which drives every commit through
   append_nosync + sync, so the group-boundary failpoints fire on a
   single Durable.commit exactly like the eager ones do. *)
let commit_cases =
  [
    ("wal.append.before", Failpoint.Crash_now, Pre);
    ("wal.append.short", Failpoint.Short_write 5, Pre);
    ("wal.append.fsync", Failpoint.Crash_now, Post);
  ]

let group_commit_cases =
  [
    ("wal.group.append", Failpoint.Crash_now, Pre);
    ("wal.group.append", Failpoint.Short_write 5, Pre);
    ("wal.group.fsync", Failpoint.Crash_now, Post);
  ]

let checkpoint_cases =
  [
    ("checkpoint.write.before", Failpoint.Crash_now);
    ("checkpoint.write.short", Failpoint.Short_write 7);
    ("checkpoint.fsync", Failpoint.Crash_now);
    ("checkpoint.rename.before", Failpoint.Crash_now);
    ("checkpoint.rename.after", Failpoint.Crash_now);
    ("wal.truncate.before", Failpoint.Crash_now);
  ]

let run_crash_case ?policy ~name ~action ~expect ~op () =
  let dir = fresh_dir () in
  let d, _ = Durable.open_dir ?policy ~dir () in
  let db = Durable.db d in
  let _, _, o1, _ = build_small db in
  Durable.commit d;
  Durable.sync d;
  let pre = fingerprint db in
  Database.set_attr db o1 "age" (Value.Int 99);
  let post = fingerprint db in
  let hits0 = Failpoint.hit_count name in
  let trips0 = Failpoint.trip_count name in
  Failpoint.arm name action;
  (try
     op d;
     Alcotest.failf "%s: expected a crash" name
   with Failpoint.Crash _ -> ());
  (* the per-site counters prove the armed failpoint actually fired,
     not that the operation failed for some unrelated reason *)
  check Alcotest.int
    (Printf.sprintf "%s: failpoint tripped exactly once" name)
    (trips0 + 1) (Failpoint.trip_count name);
  check Alcotest.bool
    (Printf.sprintf "%s: site was reached" name)
    true
    (Failpoint.hit_count name > hits0);
  Failpoint.reset ();
  (* the process "died": reopen from disk *)
  let d2, report = Durable.open_dir ?policy ~dir () in
  let db2 = Durable.db d2 in
  check Alcotest.string
    (Printf.sprintf "%s: recovered state" name)
    (match expect with Pre -> pre | Post -> post)
    (fingerprint db2);
  assert_consistent name db2;
  (* and the reopened store must still accept and persist new work *)
  Database.set_attr db2 o1 "name" (Value.String "carol");
  Durable.commit d2;
  let final = fingerprint db2 in
  Durable.close d2;
  let d3, _ = Durable.open_dir ?policy ~dir () in
  check Alcotest.string
    (Printf.sprintf "%s: writable after recovery" name)
    final
    (fingerprint (Durable.db d3));
  Durable.close d3;
  report

let run_commit_cases ~policy cases =
  List.iter
    (fun (name, action, expect) ->
      let report =
        run_crash_case ~policy ~name ~action ~expect ~op:Durable.commit ()
      in
      if expect = Pre && action <> Failpoint.Crash_now then
        Alcotest.(check bool)
          (Printf.sprintf "%s: torn bytes dropped" name)
          true
          (report.Recovery.dropped_bytes > 0))
    cases

let test_crash_matrix_commit () =
  run_commit_cases ~policy:Durable.Every_commit commit_cases

let test_crash_matrix_group_commit () =
  run_commit_cases ~policy:(Durable.Group 1) group_commit_cases

let test_crash_matrix_checkpoint () =
  List.iter
    (fun (name, action) ->
      let report =
        run_crash_case ~name ~action ~expect:Post
          ~op:(fun d ->
            Durable.commit d;
            Durable.checkpoint d)
          ()
      in
      (* a crash after the snapshot rename but before the log reset must
         make replay skip the already-folded batches *)
      if String.equal name "checkpoint.rename.after" then
        Alcotest.(check bool) "replay skips checkpointed batches" true
          (report.Recovery.batches_skipped > 0))
    checkpoint_cases

(* Crashes inside [Storage.write_atomic] users outside the durable path:
   the target file must hold either the old or the new image, never a
   mix, with the rename the commit point. *)
let atomic_write_cases prefix =
  [
    (prefix ^ ".write.before", Failpoint.Crash_now, false);
    (prefix ^ ".write.short", Failpoint.Short_write 4, false);
    (prefix ^ ".fsync", Failpoint.Crash_now, false);
    (prefix ^ ".rename.before", Failpoint.Crash_now, false);
    (prefix ^ ".rename.after", Failpoint.Crash_now, true);
  ]

let test_atomic_write_crashes () =
  List.iter
    (fun prefix ->
      let path = Filename.temp_file "tse_atomic" ".dat" in
      List.iter
        (fun (name, action, expect_new) ->
          Storage.write_atomic ~fp:prefix ~path "old image";
          Failpoint.arm name action;
          (try
             Storage.write_atomic ~fp:prefix ~path "new image";
             Alcotest.failf "%s: expected a crash" name
           with Failpoint.Crash _ -> ());
          Failpoint.reset ();
          check Alcotest.string name
            (if expect_new then "new image" else "old image")
            (Storage.read_file path))
        (atomic_write_cases prefix);
      Sys.remove path)
    [ "snapshot"; "catalog" ]

(* The matrix above and the atomic-write sweep must together exercise
   every failpoint the code declares — a new failpoint without crash
   coverage fails here. *)
let test_matrix_covers_every_failpoint () =
  let covered =
    List.map (fun (n, _, _) -> n) commit_cases
    @ List.map (fun (n, _, _) -> n) group_commit_cases
    @ List.map (fun (n, _) -> n) checkpoint_cases
    @ List.concat_map
        (fun p -> List.map (fun (n, _, _) -> n) (atomic_write_cases p))
        [ "snapshot"; "catalog" ]
    @ List.map (fun (n, _, _) -> n) (atomic_write_cases "checkpoint")
    @ [
        (* the evolution crash matrix in test_evolution_recovery *)
        "evolve.change"; "evolve.derive"; "evolve.classify";
        "evolve.integrate"; "evolve.reclassify"; "evolve.log.begin";
        "evolve.log.commit";
      ]
  in
  check
    Alcotest.(list string)
    "every declared failpoint has crash coverage" (Failpoint.all ())
    (List.sort_uniq compare covered)

(* ---------------- group commit ---------------- *)

let wal_size dir = (Unix.stat (Filename.concat dir "wal")).Unix.st_size

let test_group_commit_coalesces () =
  let dir = fresh_dir () in
  let d, _ = Durable.open_dir ~policy:(Durable.Group 3) ~dir () in
  let db = Durable.db d in
  let _, _, o1, _ = build_small db in
  (* first two commits are framed, not written: nothing on disk yet *)
  Durable.commit d;
  check Alcotest.int "one unsynced commit" 1 (Durable.unsynced_commits d);
  Database.set_attr db o1 "age" (Value.Int 31);
  Durable.commit d;
  check Alcotest.int "two unsynced commits" 2 (Durable.unsynced_commits d);
  check Alcotest.int "nothing flushed yet" 0 (wal_size dir);
  check Alcotest.int "no fsync yet" 0 (Durable.wal_stats d).Wal.fsyncs;
  (* the third commit completes the group: one write, one fsync *)
  Database.set_attr db o1 "age" (Value.Int 32);
  Durable.commit d;
  check Alcotest.int "group flushed" 0 (Durable.unsynced_commits d);
  Alcotest.(check bool) "group on disk" true (wal_size dir > 0);
  let stats = Durable.wal_stats d in
  check Alcotest.int "one fsync for three commits" 1 stats.Wal.fsyncs;
  check Alcotest.int "three batches framed" 3 stats.Wal.batches_framed;
  check Alcotest.int "batches per sync" 3 stats.Wal.max_batches_per_sync;
  let fp = fingerprint db in
  Durable.close d;
  let d2, report = Durable.open_dir ~dir () in
  check Alcotest.int "all three batches replay" 3
    report.Recovery.batches_applied;
  check Alcotest.string "state identical" fp (fingerprint (Durable.db d2));
  assert_consistent "group reopen" (Durable.db d2);
  Durable.close d2

let test_manual_sync_barrier () =
  let dir = fresh_dir () in
  let d, _ = Durable.open_dir ~policy:Durable.Manual ~dir () in
  let db = Durable.db d in
  let _, _, o1, _ = build_small db in
  Durable.commit d;
  Database.set_attr db o1 "age" (Value.Int 41);
  Durable.commit d;
  check Alcotest.int "manual never auto-syncs" 2 (Durable.unsynced_commits d);
  check Alcotest.int "nothing on disk" 0 (wal_size dir);
  Durable.sync d;
  check Alcotest.int "barrier drains" 0 (Durable.unsynced_commits d);
  let synced = fingerprint db in
  (* a commit after the barrier is lost by a crash; the barrier is not *)
  Database.set_attr db o1 "age" (Value.Int 42);
  Durable.commit d;
  let d2, _ = Durable.open_dir ~policy:Durable.Manual ~dir () in
  check Alcotest.string "exactly the synced prefix survives" synced
    (fingerprint (Durable.db d2));
  assert_consistent "manual reopen" (Durable.db d2);
  Durable.close d2

let test_close_and_checkpoint_are_barriers () =
  List.iter
    (fun finishing ->
      let dir = fresh_dir () in
      let d, _ = Durable.open_dir ~policy:Durable.Manual ~dir () in
      let db = Durable.db d in
      let _, _, o1, _ = build_small db in
      Durable.commit d;
      Database.set_attr db o1 "age" (Value.Int 77);
      Durable.commit d;
      let fp = fingerprint db in
      finishing d;
      let d2, _ = Durable.open_dir ~dir () in
      check Alcotest.string "unsynced commits flushed by the barrier" fp
        (fingerprint (Durable.db d2));
      assert_consistent "barrier reopen" (Durable.db d2);
      Durable.close d2)
    [ Durable.close; (fun d -> Durable.checkpoint d; Durable.close d) ]

let test_set_policy_is_barrier () =
  let dir = fresh_dir () in
  let d, _ = Durable.open_dir ~policy:Durable.Manual ~dir () in
  let db = Durable.db d in
  ignore (build_small db);
  Durable.commit d;
  check Alcotest.int "buffered" 1 (Durable.unsynced_commits d);
  Durable.set_policy d Durable.Every_commit;
  check Alcotest.int "switch flushed" 0 (Durable.unsynced_commits d);
  Alcotest.(check bool) "on disk" true (wal_size dir > 0);
  Durable.close d

let test_policy_parsing () =
  Alcotest.(check bool) "every" true
    (Durable.policy_of_string "every_commit" = Durable.Every_commit);
  Alcotest.(check bool) "every short" true
    (Durable.policy_of_string "every" = Durable.Every_commit);
  Alcotest.(check bool) "group" true
    (Durable.policy_of_string "group:8" = Durable.Group 8);
  Alcotest.(check bool) "manual" true
    (Durable.policy_of_string "Manual" = Durable.Manual);
  check Alcotest.string "roundtrip" "group:8"
    (Durable.policy_to_string (Durable.policy_of_string "group:8"));
  List.iter
    (fun bad ->
      match Durable.policy_of_string bad with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "policy %S should be rejected" bad)
    [ "group:0"; "group:-1"; "group:x"; "sometimes"; "group" ]

(* A group torn mid-flush must degrade to its longest whole-record
   prefix: commits 1..k of the group survive, k+1.. are truncated away.
   Record offsets are discovered from an identical clean run (the log
   bytes are deterministic for a fixed op sequence on a fresh store). *)
let test_partial_group_flush () =
  let run_ops ~dir ~crash_at =
    let d, _ = Durable.open_dir ~policy:Durable.Manual ~dir () in
    let db = Durable.db d in
    let _, _, o1, _ = build_small db in
    Durable.commit d;
    Durable.sync d;
    let states = ref [ fingerprint db ] in
    List.iter
      (fun age ->
        Database.set_attr db o1 "age" (Value.Int age);
        Durable.commit d;
        states := fingerprint db :: !states)
      [ 41; 42; 43 ];
    (match crash_at with
    | None -> Durable.sync d; Durable.close d
    | Some cut ->
      Failpoint.arm "wal.group.append" (Failpoint.Short_write cut);
      (try
         Durable.sync d;
         Alcotest.fail "expected a crash inside the group flush"
       with Failpoint.Crash _ -> ());
      Failpoint.reset ());
    List.rev !states
  in
  (* clean twin run: find where the group's records start *)
  let clean_dir = fresh_dir () in
  let states = run_ops ~dir:clean_dir ~crash_at:None in
  let scan = Wal.scan_file ~path:(Filename.concat clean_dir "wal") in
  let offsets =
    List.filter_map
      (fun (b : Wal.batch) -> if b.seq >= 2 then Some b.start_off else None)
      scan.Wal.batches
  in
  ignore states;
  let group_base = List.nth offsets 0 in
  (* cut inside the group's THIRD record: two whole batches survive.
     (Relative offsets within the group are deterministic across runs;
     absolute fingerprints are not — a process-global property counter
     leaks into the schema encoding — so the recovered state is compared
     against the crash run's own captured states.) *)
  let cut = List.nth offsets 2 - group_base + 5 in
  let dir = fresh_dir () in
  let states' = run_ops ~dir ~crash_at:(Some cut) in
  let d, report = Durable.open_dir ~dir () in
  check Alcotest.int "two of three grouped batches survive" 3
    report.Recovery.batches_applied;
  Alcotest.(check bool) "torn record truncated" true
    (report.Recovery.dropped_bytes > 0);
  check Alcotest.string "recovered = longest whole-record prefix"
    (List.nth states' 2)
    (fingerprint (Durable.db d));
  assert_consistent "partial group" (Durable.db d);
  Durable.close d

(* ---------------- random corruption property ---------------- *)

(* Any single corrupted byte in the log must leave the store openable,
   consistent, and exactly at one of the states the commit sequence went
   through (a prefix of history — never a crash, never an invented
   state). *)
let prop_wal_corruption =
  let dir = fresh_dir () in
  let d, _ = Durable.open_dir ~dir () in
  let db = Durable.db d in
  let states = ref [ fingerprint db ] in
  let snap () = states := fingerprint db :: !states in
  let person, _, o1, o2 = build_small db in
  Durable.commit d;
  snap ();
  Database.set_attr db o1 "age" (Value.Int 41);
  let staff = reg db "Staff" [ stored "salary" Value.TInt ] [ person ] in
  Database.add_base_membership db o1 staff;
  Durable.commit d;
  snap ();
  Database.destroy_object db o2;
  Database.set_attr db o1 "salary" (Value.Int 7);
  Durable.commit d;
  snap ();
  Durable.close d;
  let wal = Storage.read_file (Filename.concat dir "wal") in
  let states = !states in
  QCheck.Test.make ~name:"single-byte WAL corruption never breaks recovery"
    ~count:150
    QCheck.(pair (int_bound (String.length wal - 1)) (int_bound 255))
    (fun (off, byte) ->
      let corrupted = Bytes.of_string wal in
      Bytes.set corrupted off (Char.chr byte);
      let cdir = fresh_dir () in
      Unix.mkdir cdir 0o755;
      let oc = open_out_bin (Filename.concat cdir "wal") in
      output_bytes oc corrupted;
      close_out oc;
      let d, _ = Durable.open_dir ~dir:cdir () in
      let db = Durable.db d in
      let fp = fingerprint db in
      let ok = Database.check db = [] && List.mem fp states in
      Durable.close d;
      ok)

(* ---------------- group-commit prefix-durability property ---------------- *)

(* Random interleavings of writes, commits, explicit sync barriers and
   crashes (handle abandoned without close) under a grouped or manual
   policy. The invariant is prefix durability: the recovered state is
   exactly the last SYNCED commit point — a synced prefix of the commit
   sequence, never a later unsynced commit, never an invented state —
   and the recovered database passes the consistency oracle. This is the
   group-commit twin of the corruption property below. *)
type group_step = Write of int | Commit | Sync | Crash

let prop_group_prefix_durability =
  let step_gen =
    QCheck.Gen.(
      frequency
        [
          (5, map (fun i -> Write i) (int_bound 99));
          (4, return Commit);
          (2, return Sync);
          (2, return Crash);
        ])
  in
  let policy_gen =
    QCheck.Gen.oneofl
      [ Durable.Group 2; Durable.Group 3; Durable.Group 8; Durable.Manual ]
  in
  let print_scenario (policy, steps) =
    Printf.sprintf "%s: %s"
      (Durable.policy_to_string policy)
      (String.concat " "
         (List.map
            (function
              | Write i -> Printf.sprintf "w%d" i
              | Commit -> "commit"
              | Sync -> "sync"
              | Crash -> "CRASH")
            steps))
  in
  let arb =
    QCheck.make ~print:print_scenario
      QCheck.Gen.(pair policy_gen (list_size (int_range 1 40) step_gen))
  in
  QCheck.Test.make
    ~name:"group commit: recovery lands on the last synced commit" ~count:60
    arb
    (fun (policy, steps) ->
      let dir = fresh_dir () in
      let d = ref (fst (Durable.open_dir ~policy ~dir ())) in
      let o =
        let db = Durable.db !d in
        let item =
          reg db "Item" [ stored "n" Value.TInt; stored "s" Value.TString ] []
        in
        Database.create_object db item
          ~init:[ ("n", Value.Int 0); ("s", Value.String "x") ]
      in
      Durable.commit !d;
      Durable.sync !d;
      (* fingerprints by commit index; the synced / committed cursors
         delimit which of them a crash may surface *)
      let states = ref [| fingerprint (Durable.db !d) |] in
      let committed = ref 0 and synced = ref 0 in
      let ok = ref true in
      List.iter
        (fun step ->
          if !ok then
            match step with
            | Write i ->
              Database.set_attr (Durable.db !d) o "n" (Value.Int i)
            | Commit ->
              Durable.commit !d;
              states := Array.append !states [| fingerprint (Durable.db !d) |];
              committed := Array.length !states - 1;
              if Durable.unsynced_commits !d = 0 then synced := !committed
            | Sync ->
              Durable.sync !d;
              synced := !committed
            | Crash ->
              (* abandon the handle: everything past the last barrier is
                 in the doomed in-memory group buffer *)
              let d2, _ = Durable.open_dir ~policy ~dir () in
              d := d2;
              let fp = fingerprint (Durable.db d2) in
              ok :=
                String.equal fp !states.(!synced)
                && Database.check (Durable.db d2) = [];
              (* the recovered prefix is the new history *)
              states := Array.sub !states 0 (!synced + 1);
              committed := !synced)
        steps;
      (* final crash so every scenario ends with a verified recovery *)
      let d2, _ = Durable.open_dir ~policy ~dir () in
      let fp = fingerprint (Durable.db d2) in
      ok :=
        !ok
        && String.equal fp !states.(!synced)
        && Database.check (Durable.db d2) = [];
      Durable.close d2;
      !ok)

let suite =
  [
    Alcotest.test_case "wal scan roundtrip" `Quick test_wal_scan_roundtrip;
    Alcotest.test_case "wal torn tail" `Quick test_wal_torn_tail;
    Alcotest.test_case "wal checksum corruption" `Quick
      test_wal_checksum_corruption;
    Alcotest.test_case "wal truncate file" `Quick test_wal_truncate_file;
    Alcotest.test_case "durable roundtrip" `Quick test_durable_roundtrip;
    Alcotest.test_case "uncommitted changes lost" `Quick
      test_durable_uncommitted_lost;
    Alcotest.test_case "incremental commits" `Quick
      test_durable_incremental_commits;
    Alcotest.test_case "checkpoint" `Quick test_durable_checkpoint;
    Alcotest.test_case "empty commit writes nothing" `Quick
      test_durable_empty_commit_writes_nothing;
    Alcotest.test_case "crash matrix: commit path" `Quick
      test_crash_matrix_commit;
    Alcotest.test_case "crash matrix: group commit path" `Quick
      test_crash_matrix_group_commit;
    Alcotest.test_case "crash matrix: checkpoint path" `Quick
      test_crash_matrix_checkpoint;
    Alcotest.test_case "crash matrix: atomic writes" `Quick
      test_atomic_write_crashes;
    Alcotest.test_case "crash matrix covers every failpoint" `Quick
      test_matrix_covers_every_failpoint;
    Alcotest.test_case "group commit coalesces" `Quick
      test_group_commit_coalesces;
    Alcotest.test_case "manual sync barrier" `Quick test_manual_sync_barrier;
    Alcotest.test_case "close/checkpoint force a barrier" `Quick
      test_close_and_checkpoint_are_barriers;
    Alcotest.test_case "set_policy forces a barrier" `Quick
      test_set_policy_is_barrier;
    Alcotest.test_case "sync policy parsing" `Quick test_policy_parsing;
    Alcotest.test_case "partial group flush truncates to a record boundary"
      `Quick test_partial_group_flush;
  ]
  @ List.map Qcheck_det.to_alcotest
      [ prop_wal_corruption; prop_group_prefix_durability ]
