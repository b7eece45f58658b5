module Pool = Tse_pool.Pool

let needs_escape c = c = ' ' || c = '\n' || c = '\\'

let escape s =
  (* Tags and slot names are identifiers in practice, but stay safe. *)
  if not (String.exists needs_escape s) then s
  else begin
    let buf = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        match c with
        | ' ' -> Buffer.add_string buf "\\s"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\\' -> Buffer.add_string buf "\\\\"
        | c -> Buffer.add_char buf c)
      s;
    Buffer.contents buf
  end

let unescape_slow s =
  let buf = Buffer.create (String.length s) in
  let rec loop i =
    if i >= String.length s then Buffer.contents buf
    else if s.[i] = '\\' && i + 1 < String.length s then begin
      (match s.[i + 1] with
      | 's' -> Buffer.add_char buf ' '
      | 'n' -> Buffer.add_char buf '\n'
      | '\\' -> Buffer.add_char buf '\\'
      | c ->
        Buffer.add_char buf '\\';
        Buffer.add_char buf c);
      loop (i + 2)
    end
    else begin
      Buffer.add_char buf s.[i];
      loop (i + 1)
    end
  in
  loop 0

let unescape s = if String.contains s '\\' then unescape_slow s else s

let encode_cell buf (c : Heap.cell) =
  let slots =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) c.slots []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  Buffer.add_string buf
    (Printf.sprintf "obj %d %s %d\n" (Oid.to_int c.oid) (escape c.tag)
       (List.length slots));
  List.iter
    (fun (k, v) ->
      Buffer.add_string buf (Printf.sprintf "slot %s " (escape k));
      Value.encode buf v;
      Buffer.add_char buf '\n')
    slots

let to_string heap =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "TSE-HEAP 1\n";
  let max_oid =
    Heap.fold heap ~init:0 ~f:(fun acc c -> max acc (Oid.to_int c.Heap.oid))
  in
  Buffer.add_string buf (Printf.sprintf "gen %d\n" (max_oid + 1));
  let pool = Pool.global () in
  if Pool.size pool > 1 && Heap.cell_count heap >= Pool.threshold () then begin
    (* Shard the encode by OID range: cells are immutable for the
       duration, each chunk renders into its own buffer, and chunk
       order equals ascending OID order — so the concatenation is
       byte-identical to the sequential encode. *)
    let parts =
      Pool.map_chunks pool ~n:(Heap.capacity heap) (fun ~lo ~hi ->
          let b = Buffer.create 4096 in
          Heap.fold_range heap ~lo ~hi ~init:() ~f:(fun () c ->
              encode_cell b c);
          Buffer.contents b)
    in
    List.iter (Buffer.add_string buf) parts
  end
  else Heap.iter heap (encode_cell buf);
  Buffer.add_string buf "end\n";
  Buffer.contents buf

let m_encodes = Tse_obs.Metrics.counter "snapshot.encodes"
let m_decodes = Tse_obs.Metrics.counter "snapshot.decodes"

(* Instrumented shadow: spans cover the whole encode, counters aggregate
   across heaps. *)
let to_string heap =
  Tse_obs.Trace.with_span "snapshot.encode" @@ fun () ->
  Tse_obs.Metrics.incr m_encodes;
  to_string heap

let fail lineno line what =
  failwith (Printf.sprintf "Snapshot: line %d: %s in %S" lineno what line)

let of_string s =
  let heap = Heap.create () in
  let lines = String.split_on_char '\n' s in
  let current = ref None in
  let expect_slots = ref 0 in
  let seen_end = ref false in
  let handle lineno line =
    let fail what = fail lineno line what in
    if !seen_end || String.length line = 0 then ()
    else
      match String.split_on_char ' ' line with
      | [ "TSE-HEAP"; "1" ] -> ()
      | [ "gen"; _n ] -> ()
      | [ "obj"; oid_s; tag; nslots ] ->
        if !expect_slots > 0 then fail "previous object truncated";
        let oid = Oid.of_int (int_of_string oid_s) in
        let oid = Heap.alloc_raw heap ~oid ~tag:(unescape tag) in
        current := Some oid;
        expect_slots := int_of_string nslots
      | "slot" :: name :: rest ->
        let oid =
          match !current with
          | Some o -> o
          | None -> fail "slot before obj"
        in
        if !expect_slots <= 0 then fail "unexpected slot";
        let payload = String.concat " " rest in
        let v, _ = Value.decode payload 0 in
        Heap.set_slot heap oid (unescape name) v;
        expect_slots := !expect_slots - 1
      | [ "end" ] ->
        if !expect_slots > 0 then fail "truncated object";
        seen_end := true
      | _ -> fail "unrecognized line"
  in
  List.iteri (fun i line -> handle (i + 1) line) lines;
  if not !seen_end then failwith "Snapshot: missing end marker";
  heap

let of_string s =
  Tse_obs.Trace.with_span "snapshot.decode" @@ fun () ->
  Tse_obs.Metrics.incr m_decodes;
  of_string s

let () = Storage.declare_failpoints "snapshot"
let save heap path = Storage.write_atomic ~fp:"snapshot" ~path (to_string heap)

let load path =
  match Storage.read_file path with
  | s -> of_string s
  | exception Sys_error msg ->
    failwith (Printf.sprintf "Snapshot.load %S: %s" path msg)

let roundtrip_equal a b =
  let cells heap =
    Heap.fold heap ~init:[] ~f:(fun acc (c : Heap.cell) ->
        ( Oid.to_int c.oid,
          c.tag,
          Hashtbl.fold (fun k v acc -> (k, v) :: acc) c.slots []
          |> List.sort Stdlib.compare )
        :: acc)
    |> List.sort Stdlib.compare
  in
  cells a = cells b
