(* Tests for the storage substrate: OIDs, values, heap, index,
   snapshots. *)

open Tse_store

let check = Alcotest.check
let vpp = Alcotest.testable Value.pp Value.equal

let test_oid_gen () =
  let g = Oid.Gen.create () in
  let a = Oid.Gen.fresh g and b = Oid.Gen.fresh g in
  Alcotest.(check bool) "fresh oids differ" false (Oid.equal a b);
  check Alcotest.int "count" 2 (Oid.Gen.count g);
  Oid.Gen.mark_used g (Oid.of_int 100);
  let c = Oid.Gen.fresh g in
  Alcotest.(check bool) "fresh after mark_used skips" true (Oid.to_int c > 100)

let test_value_conforms () =
  let open Value in
  Alcotest.(check bool) "int conforms" true (conforms (Int 3) TInt);
  Alcotest.(check bool) "int conforms float" true (conforms (Int 3) TFloat);
  Alcotest.(check bool) "string not int" false (conforms (String "x") TInt);
  Alcotest.(check bool) "null conforms anything" true (conforms Null TString);
  Alcotest.(check bool) "list of ints" true
    (conforms (List [ Int 1; Int 2 ]) (TList TInt));
  Alcotest.(check bool) "mixed list fails" false
    (conforms (List [ Int 1; String "a" ]) (TList TInt));
  Alcotest.(check bool) "anything conforms TAny" true (conforms (Bool true) TAny)

let test_value_codec () =
  let roundtrip v =
    let buf = Buffer.create 16 in
    Value.encode buf v;
    let v', pos = Value.decode (Buffer.contents buf) 0 in
    check Alcotest.int "consumed all" (Buffer.length buf) pos;
    check vpp "roundtrip" v v'
  in
  List.iter roundtrip
    [
      Value.Null;
      Value.Bool true;
      Value.Bool false;
      Value.Int (-42);
      Value.Float 3.25;
      Value.String "hello world; with: delimiters\nand newline";
      Value.Ref (Oid.of_int 7);
      Value.List [ Value.Int 1; Value.String "x"; Value.List [ Value.Null ] ];
    ]

let test_value_ty_codec () =
  let roundtrip ty =
    let buf = Buffer.create 16 in
    Value.encode_ty buf ty;
    let ty', _ = Value.decode_ty (Buffer.contents buf) 0 in
    Alcotest.(check bool) "ty roundtrip" true (Value.ty_equal ty ty')
  in
  List.iter roundtrip
    Value.[ TAny; TBool; TInt; TFloat; TString; TRef "Person"; TList (TList TInt) ]

let test_heap_basics () =
  let h = Heap.create () in
  let o = Heap.alloc h ~tag:"Person" in
  Alcotest.(check bool) "allocated" true (Heap.mem h o);
  check Alcotest.string "tag" "Person" (Heap.tag_of h o);
  check vpp "missing slot is null" Value.Null (Heap.get_slot h o "age");
  Heap.set_slot h o "age" (Value.Int 30);
  check vpp "read back" (Value.Int 30) (Heap.get_slot h o "age");
  Heap.remove_slot h o "age";
  check vpp "removed" Value.Null (Heap.get_slot h o "age");
  Heap.free h o;
  Alcotest.(check bool) "freed" false (Heap.mem h o)

let test_heap_swap_identity () =
  let h = Heap.create () in
  let a = Heap.alloc_with h ~tag:"A" [ ("x", Value.Int 1) ] in
  let b = Heap.alloc_with h ~tag:"B" [ ("x", Value.Int 2); ("y", Value.Int 3) ] in
  Heap.swap_identity h a b;
  check Alcotest.string "a has b's tag" "B" (Heap.tag_of h a);
  check vpp "a has b's x" (Value.Int 2) (Heap.get_slot h a "x");
  check vpp "a has b's y" (Value.Int 3) (Heap.get_slot h a "y");
  check Alcotest.string "b has a's tag" "A" (Heap.tag_of h b);
  check vpp "b has a's x" (Value.Int 1) (Heap.get_slot h b "x");
  check vpp "b lost y" Value.Null (Heap.get_slot h b "y")

let test_index () =
  let idx = Index.create () in
  let o1 = Oid.of_int 1 and o2 = Oid.of_int 2 in
  Index.add idx (Value.Int 30) o1;
  Index.add idx (Value.Int 30) o2;
  Index.add idx (Value.Int 40) o1;
  Index.add idx (Value.Int 30) o1 (* duplicate, ignored *);
  check Alcotest.int "cardinal" 3 (Index.cardinal idx);
  check Alcotest.int "keys" 2 (Index.distinct_keys idx);
  check Alcotest.int "lookup 30" 2
    (Oid.Set.cardinal (Index.lookup idx (Value.Int 30)));
  Index.remove idx (Value.Int 30) o1;
  check Alcotest.int "lookup 30 after remove" 1
    (Oid.Set.cardinal (Index.lookup idx (Value.Int 30)));
  check Alcotest.int "lookup missing" 0
    (Oid.Set.cardinal (Index.lookup idx (Value.Int 99)))

let test_snapshot_roundtrip () =
  let h = Heap.create () in
  let o1 =
    Heap.alloc_with h ~tag:"Person"
      [ ("name", Value.String "ann with spaces"); ("age", Value.Int 30) ]
  in
  let _o2 =
    Heap.alloc_with h ~tag:"weird tag"
      [ ("friend", Value.Ref o1); ("xs", Value.List [ Value.Int 1; Value.Null ]) ]
  in
  let s = Snapshot.to_string h in
  let h' = Snapshot.of_string s in
  Alcotest.(check bool) "roundtrip equal" true (Snapshot.roundtrip_equal h h');
  (* a fresh alloc in the loaded heap must not collide *)
  let o3 = Heap.alloc h' ~tag:"New" in
  Alcotest.(check bool) "no oid collision" true (Oid.to_int o3 > Oid.to_int o1)

let test_snapshot_file () =
  let h = Heap.create () in
  ignore (Heap.alloc_with h ~tag:"T" [ ("x", Value.Int 1) ]);
  let path = Filename.temp_file "tse_snap" ".db" in
  Snapshot.save h path;
  let h' = Snapshot.load path in
  Sys.remove path;
  Alcotest.(check bool) "file roundtrip" true (Snapshot.roundtrip_equal h h')

let test_snapshot_malformed () =
  Alcotest.check_raises "missing end" (Failure "Snapshot: missing end marker")
    (fun () -> ignore (Snapshot.of_string "TSE-HEAP 1\ngen 3\n"));
  (* parse errors carry the line number and the offending line *)
  Alcotest.check_raises "bad line is located"
    (Failure "Snapshot: line 3: unrecognized line in \"cell nonsense\"")
    (fun () ->
      ignore (Snapshot.of_string "TSE-HEAP 1\ngen 3\ncell nonsense\nend\n"));
  (* a cut-short object is located at the line that exposes it *)
  Alcotest.check_raises "object cut short"
    (Failure "Snapshot: line 4: truncated object in \"end\"")
    (fun () -> ignore (Snapshot.of_string "TSE-HEAP 1\ngen 2\nobj 1 T 1\nend\n"));
  Alcotest.check_raises "next object before the slots"
    (Failure "Snapshot: line 4: previous object truncated in \"obj 2 T 0\"")
    (fun () ->
      ignore
        (Snapshot.of_string "TSE-HEAP 1\ngen 3\nobj 1 T 1\nobj 2 T 0\nend\n"));
  (* torn input: every strict prefix short of the end marker is
     rejected, never decoded into a partial heap *)
  let h = Heap.create () in
  for i = 1 to 4 do
    ignore
      (Heap.alloc_with h ~tag:"T"
         [ ("n", Value.Int i); ("s", Value.String "a b") ])
  done;
  let s = Snapshot.to_string h in
  for cut = 0 to String.length s - 2 do
    match Snapshot.of_string (String.sub s 0 cut) with
    | _ -> Alcotest.failf "a %d-byte prefix decoded" cut
    | exception Failure _ -> ()
  done

let test_snapshot_load_missing_file () =
  let path = Filename.temp_file "tse_snap" ".gone" in
  Sys.remove path;
  (* the error must name the file *)
  match Snapshot.load path with
  | _ -> Alcotest.fail "expected load of a missing file to fail"
  | exception Failure msg ->
    Alcotest.(check bool)
      (Printf.sprintf "%S mentions the path" msg)
      true
      (String.length msg >= String.length path
      && String.sub msg 0 14 = "Snapshot.load ")

let test_stats () =
  let s = Stats.create () in
  for _ = 1 to 10 do
    Stats.incr_oids s
  done;
  Stats.add_pointers s 4;
  for _ = 1 to 5 do
    Stats.incr_objects s
  done;
  check Alcotest.int "managerial bytes" ((10 * 8) + (4 * 8))
    (Stats.managerial_bytes s);
  check (Alcotest.float 0.001) "oids per object" 2.0 (Stats.oids_per_object s);
  Stats.reset s;
  check Alcotest.int "reset" 0 (Stats.managerial_bytes s)

(* Property tests *)

let value_gen =
  let open QCheck.Gen in
  sized
  @@ fix (fun self n ->
         let base =
           oneof
             [
               return Value.Null;
               map (fun b -> Value.Bool b) bool;
               map (fun i -> Value.Int i) int;
               map (fun s -> Value.String s) string_printable;
               map (fun i -> Value.Ref (Oid.of_int (abs i + 1))) small_int;
             ]
         in
         if n <= 0 then base
         else
           frequency
             [
               (3, base);
               ( 1,
                 map
                   (fun vs -> Value.List vs)
                   (list_size (int_bound 4) (self (n / 2))) );
             ])

let value_arb = QCheck.make ~print:Value.to_string value_gen

let prop_value_roundtrip =
  QCheck.Test.make ~name:"value codec roundtrips (qcheck)" ~count:500 value_arb
    (fun v ->
      let buf = Buffer.create 16 in
      Value.encode buf v;
      let v', _ = Value.decode (Buffer.contents buf) 0 in
      Value.equal v v')

let prop_value_compare_total =
  QCheck.Test.make ~name:"value compare consistent with equal" ~count:500
    (QCheck.pair value_arb value_arb) (fun (a, b) ->
      Value.equal a b = (Value.compare a b = 0))

let suite =
  [
    Alcotest.test_case "oid generator" `Quick test_oid_gen;
    Alcotest.test_case "value conformance" `Quick test_value_conforms;
    Alcotest.test_case "value codec roundtrip" `Quick test_value_codec;
    Alcotest.test_case "value type codec roundtrip" `Quick test_value_ty_codec;
    Alcotest.test_case "heap basics" `Quick test_heap_basics;
    Alcotest.test_case "heap identity swap" `Quick test_heap_swap_identity;
    Alcotest.test_case "hash index" `Quick test_index;
    Alcotest.test_case "snapshot roundtrip" `Quick test_snapshot_roundtrip;
    Alcotest.test_case "snapshot file save/load" `Quick test_snapshot_file;
    Alcotest.test_case "snapshot malformed input" `Quick test_snapshot_malformed;
    Alcotest.test_case "snapshot load names missing file" `Quick
      test_snapshot_load_missing_file;
    Alcotest.test_case "storage accounting" `Quick test_stats;
  ]
  @ List.map Qcheck_det.to_alcotest
      [ prop_value_roundtrip; prop_value_compare_total ]
