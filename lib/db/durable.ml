module Oid = Tse_store.Oid
module Heap = Tse_store.Heap
module Codec = Tse_store.Codec
module Snapshot = Tse_store.Snapshot
module Storage = Tse_store.Storage
module Wal = Tse_store.Wal
module Recovery = Tse_store.Recovery
module Failpoint = Tse_store.Failpoint
module Schema_graph = Tse_schema.Schema_graph
module Schema_codec = Tse_schema.Schema_codec
module Metrics = Tse_obs.Metrics
module Trace = Tse_obs.Trace

let m_commits = Metrics.counter "durable.commits"
let m_empty_commits = Metrics.counter "durable.empty_commits"
let m_checkpoints = Metrics.counter "durable.checkpoints"
let m_opens = Metrics.counter "durable.opens"

type sync_policy = Every_commit | Group of int | Manual

type t = {
  dir : string;
  database : Database.t;
  wal : Wal.t;
  mutable seq : int;  (* last appended batch *)
  mutable pending : Heap.op list;  (* newest first *)
  dirty_bases : unit Oid.Tbl.t;
  mutable last_schema : string;  (* last durable schema image *)
  ext_last : (string, string) Hashtbl.t;  (* last durable blob per ext tag *)
  ext_staged : (string, string) Hashtbl.t;  (* staged for the next commit *)
  mutable policy : sync_policy;
  mutable unsynced : int;  (* commits appended since the last sync barrier *)
  mutable closed : bool;
}

let db t = t.database
let dir t = t.dir
let seq t = t.seq
let snapshot_path dir = Filename.concat dir "snapshot"
let wal_path dir = Filename.concat dir "wal"

let check_policy = function
  | Group n when n < 1 ->
    invalid_arg (Printf.sprintf "Durable: Group of %d: size must be >= 1" n)
  | p -> p

let policy_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "every" | "every_commit" | "everycommit" -> Every_commit
  | "manual" -> Manual
  | spec -> (
    match String.split_on_char ':' spec with
    | [ "group"; n ] -> (
      match int_of_string_opt n with
      | Some n -> check_policy (Group n)
      | None -> invalid_arg (Printf.sprintf "Durable: bad sync policy %S" s))
    | _ -> invalid_arg (Printf.sprintf "Durable: bad sync policy %S" s))

let policy_to_string = function
  | Every_commit -> "every_commit"
  | Group n -> Printf.sprintf "group:%d" n
  | Manual -> "manual"

(* mirrors DB_FULL_RECLASSIFY: the environment picks the default so CI can
   run the whole suite under a grouped policy without touching the tests *)
let env_policy () =
  match Sys.getenv_opt "TSE_SYNC_POLICY" with
  | None | Some "" -> Every_commit
  | Some s -> policy_of_string s

let () = Storage.declare_failpoints "checkpoint"

(* the two WAL record boundaries of the evolution protocol: crash before
   the intent record (nothing logged -> rollback) and crash between the
   intent and the decision marker (dangling begin -> rollback) *)
let fp_evo_begin = "evolve.log.begin"
let fp_evo_commit = "evolve.log.commit"
let () = List.iter Failpoint.declare [ fp_evo_begin; fp_evo_commit ]

(* ------------------------------------------------------------------ *)
(* Snapshot format                                                     *)
(* ------------------------------------------------------------------ *)

let encode_bases db =
  let buf = Buffer.create 256 in
  let bases =
    List.map
      (fun o -> (o, Oid.Set.elements (Database.base_membership db o)))
      (List.sort Oid.compare (Database.objects db))
  in
  Codec.add_list buf
    (fun buf (o, cids) ->
      Schema_codec.add_cid buf o;
      Codec.add_list buf Schema_codec.add_cid cids)
    bases;
  Buffer.contents buf

let decode_bases s =
  let bases, pos =
    Codec.read_list
      (fun s pos ->
        let o, pos = Schema_codec.read_cid s pos in
        let cids, pos = Codec.read_list Schema_codec.read_cid s pos in
        ((o, cids), pos))
      s 0
  in
  if pos <> String.length s then Codec.fail_at pos "trailing bases bytes";
  bases

let snapshot_string t =
  let db = t.database in
  let schema = Schema_codec.encode_graph (Database.graph db) in
  let bases = encode_bases db in
  let heap_text = Snapshot.to_string (Database.heap db) in
  let buf = Buffer.create (String.length heap_text + 256) in
  Buffer.add_string buf "TSE-DB 1\n";
  Buffer.add_string buf (Printf.sprintf "seq %d\n" t.seq);
  Buffer.add_string buf (Printf.sprintf "SCHEMA %d\n" (String.length schema));
  Buffer.add_string buf schema;
  Buffer.add_string buf (Printf.sprintf "\nBASES %d\n" (String.length bases));
  Buffer.add_string buf bases;
  (* upper-layer extension blobs (e.g. the view history), keyed by the same
     tags the log's [Ext] entries use, in a stable order *)
  Hashtbl.fold (fun tag blob acc -> (tag, blob) :: acc) t.ext_last []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  |> List.iter (fun (tag, blob) ->
         Buffer.add_string buf
           (Printf.sprintf "\nEXT %s %d\n" tag (String.length blob));
         Buffer.add_string buf blob);
  Buffer.add_string buf "\nHEAP\n";
  Buffer.add_string buf heap_text;
  Buffer.contents buf

(* [seq, schema blob, bases blob, heap text] *)
let parse_snapshot text =
  let fail what = failwith ("Durable: snapshot: " ^ what) in
  let header = "TSE-DB 1\n" in
  if String.length text < String.length header
     || String.sub text 0 (String.length header) <> header
  then fail "bad header";
  let pos = String.length header in
  let line_end pos = String.index_from text pos '\n' in
  let nl = line_end pos in
  let seq =
    match String.split_on_char ' ' (String.sub text pos (nl - pos)) with
    | [ "seq"; n ] -> ( try int_of_string n with _ -> fail "bad seq line")
    | _ -> fail "bad seq line"
  in
  let sized pos keyword =
    let nl = line_end pos in
    let len =
      match String.split_on_char ' ' (String.sub text pos (nl - pos)) with
      | [ k; n ] when String.equal k keyword -> (
        try int_of_string n with _ -> fail ("bad " ^ keyword ^ " line"))
      | _ -> fail ("bad " ^ keyword ^ " line")
    in
    if String.length text < nl + 1 + len then fail (keyword ^ " truncated");
    (String.sub text (nl + 1) len, nl + 1 + len)
  in
  let schema, pos = sized (nl + 1) "SCHEMA" in
  if pos >= String.length text || text.[pos] <> '\n' then
    fail "missing newline after SCHEMA";
  let bases, pos = sized (pos + 1) "BASES" in
  (* zero or more "\nEXT <tag> <len>\n<blob>" sections precede the heap *)
  let exts = ref [] in
  let pos = ref pos in
  let starts_with prefix =
    String.length text >= !pos + String.length prefix
    && String.sub text !pos (String.length prefix) = prefix
  in
  while starts_with "\nEXT " do
    let line_start = !pos + 1 in
    let nl = line_end line_start in
    (match
       String.split_on_char ' ' (String.sub text line_start (nl - line_start))
     with
    | [ "EXT"; tag; n ] ->
      let len = try int_of_string n with _ -> fail "bad EXT line" in
      if String.length text < nl + 1 + len then fail "EXT truncated";
      exts := (tag, String.sub text (nl + 1) len) :: !exts;
      pos := nl + 1 + len
    | _ -> fail "bad EXT line")
  done;
  let pos = !pos in
  let heap_marker = "\nHEAP\n" in
  if
    String.length text < pos + String.length heap_marker
    || String.sub text pos (String.length heap_marker) <> heap_marker
  then fail "missing HEAP section";
  let heap_text =
    String.sub text
      (pos + String.length heap_marker)
      (String.length text - pos - String.length heap_marker)
  in
  (seq, schema, bases, List.rev !exts, heap_text)

(* ------------------------------------------------------------------ *)
(* Open = snapshot + log replay                                        *)
(* ------------------------------------------------------------------ *)

let attach t =
  let heap = Database.heap t.database in
  Heap.set_logger heap (Some (fun op -> t.pending <- op :: t.pending));
  Database.add_listener t.database (fun event ->
      match event with
      | Database.Bases_changed o | Database.Object_destroyed o ->
        Oid.Tbl.replace t.dirty_bases o ()
      | Database.Object_created _ | Database.Attr_set _
      | Database.Reclassified _ | Database.Membership_delta _ ->
        (* already captured as physical heap ops *)
        ())

let open_dir ?policy ~dir () =
  Metrics.incr m_opens;
  Trace.with_span ~attrs:[ ("dir", dir) ] "durable.open" @@ fun () ->
  let policy =
    match policy with
    | Some p -> check_policy p
    | None -> env_policy ()
  in
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  let snap_file = snapshot_path dir in
  let snap_seq, snap_schema, snap_bases, snap_exts, heap =
    if Sys.file_exists snap_file then begin
      match Storage.read_file snap_file with
      | text ->
        let seq, schema, bases, exts, heap_text = parse_snapshot text in
        let heap =
          try Snapshot.of_string heap_text
          with Failure msg -> failwith ("Durable: snapshot: " ^ msg)
        in
        (seq, Some schema, decode_bases bases, exts, heap)
      | exception Sys_error msg ->
        failwith (Printf.sprintf "Durable.open_dir %S: %s" snap_file msg)
    end
    else (0, None, [], [], Heap.create ())
  in
  (* replay the log tail: heap ops directly, extension entries into the
     latest schema image, a base-membership overlay, and an opaque
     last-blob-wins table for every other tag (upper layers interpret
     those through {!ext}) *)
  let latest_schema = ref snap_schema in
  let bases_tbl = Oid.Tbl.create 64 in
  List.iter (fun (o, cids) -> Oid.Tbl.replace bases_tbl o cids) snap_bases;
  let ext_last : (string, string) Hashtbl.t = Hashtbl.create 4 in
  List.iter (fun (tag, blob) -> Hashtbl.replace ext_last tag blob) snap_exts;
  let on_ext kind blob =
    match kind with
    | "schema" -> latest_schema := Some blob
    | "bases" ->
      List.iter (fun (o, cids) -> Oid.Tbl.replace bases_tbl o cids)
        (decode_bases blob)
    | other -> Hashtbl.replace ext_last other blob
  in
  let report =
    Recovery.replay ~heap ~path:(wal_path dir) ~after:snap_seq ~on_ext
  in
  let graph =
    match !latest_schema with
    | Some blob -> (
      try Schema_codec.decode_graph ~gen:(Heap.gen heap) blob
      with Codec.Corrupt (what, pos) ->
        failwith (Printf.sprintf "Durable: schema: %s at %d" what pos))
    | None -> Schema_graph.create ~gen:(Heap.gen heap)
  in
  (* drop memberships of objects destroyed later in the log *)
  let bases =
    Oid.Tbl.fold
      (fun o cids acc -> if Heap.mem heap o then (o, cids) :: acc else acc)
      bases_tbl []
  in
  let database = Database.restore ~heap ~graph ~bases in
  let seq = max snap_seq report.Recovery.last_seq in
  let t =
    {
      dir;
      database;
      wal = Wal.open_append ~path:(wal_path dir);
      seq;
      pending = [];
      dirty_bases = Oid.Tbl.create 16;
      last_schema = Schema_codec.encode_graph graph;
      ext_last;
      ext_staged = Hashtbl.create 4;
      policy;
      unsynced = 0;
      closed = false;
    }
  in
  attach t;
  (t, report)

(* ------------------------------------------------------------------ *)
(* Commit / checkpoint / close                                         *)
(* ------------------------------------------------------------------ *)

let check_open t what =
  if t.closed then invalid_arg (Printf.sprintf "Durable.%s: closed" what)

let policy t = t.policy
let unsynced_commits t = t.unsynced
let wal_stats t = Wal.stats t.wal

let sync t =
  check_open t "sync";
  Wal.sync t.wal;
  t.unsynced <- 0

let set_policy t p =
  check_open t "set_policy";
  let p = check_policy p in
  (* a policy switch is a barrier: nothing committed under the old policy
     stays exposed to the new one's weaker (or different) cadence *)
  sync t;
  t.policy <- p

let stage_ext t ~tag blob =
  check_open t "stage_ext";
  (match tag with
  | "schema" | "bases" ->
    invalid_arg (Printf.sprintf "Durable.stage_ext: reserved tag %s" tag)
  | _ -> ());
  if String.contains tag ' ' || String.contains tag '\n' then
    invalid_arg (Printf.sprintf "Durable.stage_ext: bad tag %S" tag);
  Hashtbl.replace t.ext_staged tag blob

let ext t tag =
  match Hashtbl.find_opt t.ext_staged tag with
  | Some blob -> Some blob
  | None -> Hashtbl.find_opt t.ext_last tag

let commit_extra t ~extra =
  check_open t "commit";
  Trace.with_span "durable.commit" @@ fun () ->
  let db = t.database in
  let ops = List.rev_map (fun op -> Wal.Op op) t.pending in
  let bases_entry =
    if Oid.Tbl.length t.dirty_bases = 0 then []
    else begin
      let buf = Buffer.create 64 in
      let dirty =
        Oid.Tbl.fold (fun o () acc -> o :: acc) t.dirty_bases []
        |> List.sort Oid.compare
      in
      Codec.add_list buf
        (fun buf o ->
          Schema_codec.add_cid buf o;
          let cids =
            if Database.mem_object db o then
              Oid.Set.elements (Database.base_membership db o)
            else []
          in
          Codec.add_list buf Schema_codec.add_cid cids)
        dirty;
      [ Wal.Ext ("bases", Buffer.contents buf) ]
    end
  in
  let schema = Schema_codec.encode_graph (Database.graph db) in
  let schema_entry =
    if String.equal schema t.last_schema then []
    else [ Wal.Ext ("schema", schema) ]
  in
  let ext_entries =
    Hashtbl.fold
      (fun tag blob acc ->
        if Hashtbl.find_opt t.ext_last tag = Some blob then acc
        else (tag, blob) :: acc)
      t.ext_staged []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
    |> List.map (fun (tag, blob) -> Wal.Ext (tag, blob))
  in
  if ops = [] && bases_entry = [] && schema_entry = [] && ext_entries = []
     && extra = []
  then begin
    (* anything staged was byte-identical to the durable image *)
    Hashtbl.reset t.ext_staged;
    Metrics.incr m_empty_commits
  end
  else begin
    Metrics.incr m_commits;
    let gen_entry = [ Wal.Gen (Oid.Gen.peek (Heap.gen (Database.heap db))) ] in
    let entries = ops @ gen_entry @ bases_entry @ schema_entry @ ext_entries
                  @ extra in
    let seq = t.seq + 1 in
    (match t.policy with
    | Every_commit -> Wal.append t.wal ~seq entries
    | Group _ | Manual ->
      Wal.append_nosync t.wal ~seq entries;
      t.unsynced <- t.unsynced + 1);
    (* the batch is appended (durable now, or framed for the next sync
       barrier): advance the in-memory image *)
    t.seq <- seq;
    t.pending <- [];
    Oid.Tbl.reset t.dirty_bases;
    t.last_schema <- schema;
    List.iter
      (function
        | Wal.Ext (tag, blob) -> Hashtbl.replace t.ext_last tag blob
        | _ -> ())
      ext_entries;
    Hashtbl.reset t.ext_staged;
    match t.policy with
    | Group n when t.unsynced >= n -> sync t
    | Every_commit | Group _ | Manual -> ()
  end

let commit t = commit_extra t ~extra:[]

(* ------------------------------------------------------------------ *)
(* Evolution protocol records                                          *)
(* ------------------------------------------------------------------ *)

(* The two-record unit is always eagerly fsynced whatever the sync
   policy: the begin (intent) must be durable before the commit marker,
   and the marker before any in-memory application starts — otherwise a
   crash could leave applied effects whose decision record was lost.
   [Wal.append] flushes any buffered group first, so log order is kept. *)

let append_forced t entries =
  let seq = t.seq + 1 in
  Wal.append t.wal ~seq entries;
  t.seq <- seq;
  t.unsynced <- 0;
  seq

let log_evolve_begin t ~view payload =
  check_open t "log_evolve_begin";
  commit t;
  (* the record's eid is its own batch sequence number *)
  Failpoint.hit fp_evo_begin;
  let seq = t.seq + 1 in
  ignore (append_forced t [ Wal.Evo_begin { eid = seq; view; payload } ]);
  Metrics.incr (Metrics.counter "durable.evo_begins");
  seq

let log_evolve_commit t ~eid ~view =
  check_open t "log_evolve_commit";
  Failpoint.hit fp_evo_commit;
  ignore (append_forced t [ Wal.Evo_commit { eid; view } ]);
  Metrics.incr (Metrics.counter "durable.evo_commits")

let commit_evolve_done t ~eid =
  check_open t "commit_evolve_done";
  commit_extra t ~extra:[ Wal.Evo_done { eid; ok = true } ];
  Metrics.incr (Metrics.counter "durable.evo_applied")

let log_evolve_abort t ~eid =
  check_open t "log_evolve_abort";
  (* called on a handle whose in-memory state is poisoned by a failed
     roll-forward: durably neutralize the committed intent WITHOUT
     folding any of the poisoned pending state into the log *)
  t.pending <- [];
  Oid.Tbl.reset t.dirty_bases;
  Hashtbl.reset t.ext_staged;
  ignore (append_forced t [ Wal.Evo_done { eid; ok = false } ]);
  Metrics.incr (Metrics.counter "durable.evo_aborted")

let checkpoint t =
  check_open t "checkpoint";
  Metrics.incr m_checkpoints;
  Trace.with_span "durable.checkpoint" @@ fun () ->
  commit t;
  (* the snapshot folds the whole in-memory image, so everything framed
     must be on disk first: a checkpoint is always a sync barrier *)
  sync t;
  Storage.write_atomic ~fp:"checkpoint" ~path:(snapshot_path t.dir)
    (snapshot_string t);
  (* a crash before this reset is benign: replay skips seq <= snapshot's *)
  Wal.reset t.wal

let close t =
  check_open t "close";
  commit t;
  sync t;
  t.closed <- true;
  Heap.set_logger (Database.heap t.database) None;
  Wal.close t.wal

let abandon t =
  if not t.closed then begin
    t.closed <- true;
    Heap.set_logger (Database.heap t.database) None;
    Wal.abandon t.wal
  end
