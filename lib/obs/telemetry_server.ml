let default_addr () =
  match Sys.getenv_opt "TSE_STATS_ADDR" with
  | Some a when a <> "" -> a
  | _ -> "127.0.0.1:9464"

(* ---- address syntax ------------------------------------------------- *)

type parsed_addr = Tcp of Unix.inet_addr * int | Sock of string

let parse_addr s =
  match String.index_opt s ':' with
  | None -> Error (Printf.sprintf "bad address %S (want HOST:PORT or unix:PATH)" s)
  | Some i ->
    let scheme = String.sub s 0 i in
    let rest = String.sub s (i + 1) (String.length s - i - 1) in
    if scheme = "unix" then
      if rest = "" then Error "bad address: empty unix path" else Ok (Sock rest)
    else begin
      let host = if scheme = "localhost" || scheme = "" then "127.0.0.1" else scheme in
      match
        (Unix.inet_addr_of_string host, int_of_string_opt rest)
      with
      | ip, Some port when port >= 0 && port < 65536 -> Ok (Tcp (ip, port))
      | _, (None | Some _) -> Error (Printf.sprintf "bad port in %S" s)
      | exception Failure _ ->
        Error (Printf.sprintf "bad host %S (numeric IP or localhost)" host)
    end

let string_of_sockaddr = function
  | Unix.ADDR_UNIX p -> "unix:" ^ p
  | Unix.ADDR_INET (ip, port) ->
    Printf.sprintf "%s:%d" (Unix.string_of_inet_addr ip) port

(* ---- Prometheus-style exposition ------------------------------------ *)

let mangle name =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> c
      | _ -> '_')
    name

let label_escape v =
  let buf = Buffer.create (String.length v) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    v;
  Buffer.contents buf

let render_labels = function
  | [] -> ""
  | kvs ->
    "{"
    ^ String.concat ","
        (List.map
           (fun (k, v) -> Printf.sprintf "%s=\"%s\"" (mangle k) (label_escape v))
           kvs)
    ^ "}"

let render_metrics () =
  let samples = Metrics.snapshot () in
  let buf = Buffer.create 2048 in
  let typed = Hashtbl.create 32 in
  let type_line base kind =
    if not (Hashtbl.mem typed base) then begin
      Hashtbl.add typed base ();
      Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" base kind)
    end
  in
  List.iter
    (fun s ->
      let base = "tse_" ^ mangle s.Metrics.s_name in
      let lbl = render_labels s.Metrics.s_labels in
      match s.Metrics.s_value with
      | Metrics.Counter v ->
        type_line base "counter";
        Buffer.add_string buf (Printf.sprintf "%s%s %d\n" base lbl v)
      | Metrics.Gauge v ->
        type_line base "gauge";
        Buffer.add_string buf (Printf.sprintf "%s%s %.6g\n" base lbl v)
      | Metrics.Histogram h ->
        type_line base "histogram";
        let le bound cum =
          let inner =
            match s.Metrics.s_labels with
            | [] -> Printf.sprintf "le=\"%s\"" bound
            | kvs ->
              String.concat ","
                (List.map
                   (fun (k, v) ->
                     Printf.sprintf "%s=\"%s\"" (mangle k) (label_escape v))
                   kvs)
              ^ Printf.sprintf ",le=\"%s\"" bound
          in
          Buffer.add_string buf
            (Printf.sprintf "%s_bucket{%s} %d\n" base inner cum)
        in
        List.iter
          (fun (bound, cum) -> le (Printf.sprintf "%.6g" bound) cum)
          h.Metrics.h_buckets;
        le "+Inf" h.Metrics.h_count;
        Buffer.add_string buf
          (Printf.sprintf "%s_sum%s %.6g\n" base lbl h.Metrics.h_sum);
        Buffer.add_string buf
          (Printf.sprintf "%s_count%s %d\n" base lbl h.Metrics.h_count))
    samples;
  Buffer.contents buf

(* ---- live-rates table ----------------------------------------------- *)

let last_rate ts name =
  match Timeseries.last ts name with Some (_, v) -> v | None -> 0.

let render_rates ts =
  let buf = Buffer.create 512 in
  (match ts with
  | None -> Buffer.add_string buf "no sampler attached\n"
  | Some ts ->
    let ops = last_rate ts "occ.commits" in
    let fsyncs = last_rate ts "wal.fsyncs" in
    let evolutions = last_rate ts "evolve.ms.rate" in
    let memo_hits = last_rate ts "reclass.verdict_memo_hits" in
    let evals = last_rate ts "reclass.formula_evals" in
    let domains =
      match Timeseries.last ts "pool.domains" with
      | Some (_, v) -> int_of_float v
      | None -> 1
    in
    let cores = Domain.recommended_domain_count () in
    Buffer.add_string buf
      (Printf.sprintf "tse live rates (tick %dms)\n" (Timeseries.interval_ms ts));
    Buffer.add_string buf (Printf.sprintf "%-22s %12.1f\n" "ops/s" ops);
    Buffer.add_string buf
      (Printf.sprintf "%-22s %12.2f\n" "evolutions/s" evolutions);
    Buffer.add_string buf
      (Printf.sprintf "%-22s %12.3f\n" "fsyncs/commit"
         (if ops > 0. then fsyncs /. ops else 0.));
    Buffer.add_string buf
      (Printf.sprintf "%-22s %11.1f%%\n" "memo hit rate"
         (if memo_hits +. evals > 0. then
            100. *. memo_hits /. (memo_hits +. evals)
          else 0.));
    Buffer.add_string buf
      (Printf.sprintf "%-22s %7d of %d cores\n" "pool domains" domains cores));
  Buffer.contents buf

(* ---- the listener --------------------------------------------------- *)

type t = {
  sock : Unix.file_descr;
  bound : string;
  unlink_on_stop : string option;
  wake_wr : Unix.file_descr;
  domain : unit Domain.t;
}

let http_response ?(status = "200 OK") ?(ctype = "text/plain; charset=utf-8")
    body =
  Printf.sprintf
    "HTTP/1.0 %s\r\nContent-Type: %s\r\nContent-Length: %d\r\nConnection: close\r\n\r\n%s"
    status ctype (String.length body) body

let route ts path =
  match path with
  | "/metrics" -> http_response (render_metrics ())
  | "/series" ->
    let body =
      match ts with
      | Some ts -> Timeseries.to_json ts
      | None -> "{\"interval_ms\":0,\"series\":[]}"
    in
    http_response ~ctype:"application/json" body
  | "/rates" -> http_response (render_rates ts)
  | "/" ->
    http_response "tse telemetry: GET /metrics | /series | /rates\n"
  | _ -> http_response ~status:"404 Not Found" "not found\n"

(* Offset just past the blank line ending an HTTP header, if any. *)
let header_end s =
  let rec find i =
    if i + 3 >= String.length s then None
    else if s.[i] = '\r' && s.[i + 1] = '\n' && s.[i + 2] = '\r'
            && s.[i + 3] = '\n' then Some (i + 4)
    else find (i + 1)
  in
  find 0

let max_request_bytes = 16384
let max_header_lines = 64

(* GET requests are tiny: read until the blank line, the byte cap or the
   header line cap, whichever comes first. [arm] runs before every read. *)
let read_request ~arm fd =
  let buf = Buffer.create 256 in
  let chunk = Bytes.create 1024 in
  let lines = ref 0 in
  let rec loop () =
    if Buffer.length buf <= max_request_bytes && !lines <= max_header_lines
    then begin
      arm ();
      match Unix.read fd chunk 0 (Bytes.length chunk) with
      | 0 -> ()
      | n ->
        Buffer.add_subbytes buf chunk 0 n;
        for i = 0 to n - 1 do
          if Bytes.get chunk i = '\n' then incr lines
        done;
        if header_end (Buffer.contents buf) = None then loop ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
    end
  in
  loop ();
  Buffer.contents buf

let path_of_request req =
  (* "GET /path?query#fragment HTTP/1.x", first line only *)
  let before c s =
    match String.index_opt s c with Some i -> String.sub s 0 i | None -> s
  in
  let target =
    match String.split_on_char ' ' (req |> before '\r' |> before '\n') with
    | _meth :: target :: _ -> target
    | _ -> ""
  in
  let path = target |> before '?' |> before '#' in
  if String.length path > 0 && path.[0] = '/' then path else "/"

let write_all ?(arm = ignore) fd s =
  let len = String.length s in
  let b = Bytes.of_string s in
  let rec go off =
    if off < len then
      match
        arm ();
        (* one write per armed call: [Unix.write] would loop internally *)
        Unix.single_write fd b off (len - off)
      with
      | n -> go (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

let conn_timeout_s = 2.0

exception Deadline

(* The listener serves one connection at a time, so each connection gets
   one deadline for the whole request and response. Socket timeouts
   restart on every call, so each call is re-armed with what is left of
   the budget: a client that sends nothing, trickles bytes or reads
   slowly is dropped when the deadline passes, not waited on forever. *)
let handle_conn ts fd =
  let deadline = Unix.gettimeofday () +. conn_timeout_s in
  let arm () =
    let left = deadline -. Unix.gettimeofday () in
    (* below the timeval's microsecond a timeout rounds to 0, which the
       kernel reads as no timeout at all *)
    if left < 0.001 then raise Deadline;
    Unix.setsockopt_float fd Unix.SO_RCVTIMEO left;
    Unix.setsockopt_float fd Unix.SO_SNDTIMEO left
  in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      try
        match read_request ~arm fd with
        | "" -> ()
        | req -> write_all ~arm fd (route ts (path_of_request req))
      with
      | Deadline | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        ())

let start ?addr ?ts () =
  let addr = match addr with Some a -> a | None -> default_addr () in
  (* a scraper hanging up mid-response costs an EPIPE, not the process *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  match parse_addr addr with
  | Error e -> Error e
  | Ok parsed -> (
    let sockaddr, dom, unlink =
      match parsed with
      | Tcp (ip, port) -> (Unix.ADDR_INET (ip, port), Unix.PF_INET, None)
      | Sock p ->
        (try if Sys.file_exists p then Sys.remove p with Sys_error _ -> ());
        (Unix.ADDR_UNIX p, Unix.PF_UNIX, Some p)
    in
    match
      let sock = Unix.socket ~cloexec:true dom Unix.SOCK_STREAM 0 in
      (try
         Unix.setsockopt sock Unix.SO_REUSEADDR true;
         Unix.bind sock sockaddr;
         Unix.listen sock 16
       with e ->
         (try Unix.close sock with Unix.Unix_error _ -> ());
         raise e);
      sock
    with
    | exception Unix.Unix_error (err, fn, _) ->
      Error (Printf.sprintf "%s: %s" fn (Unix.error_message err))
    | sock ->
      let bound = string_of_sockaddr (Unix.getsockname sock) in
      let wake_rd, wake_wr = Unix.pipe ~cloexec:true () in
      let domain =
        Domain.spawn (fun () ->
            let buf = Bytes.create 1 in
            let rec loop () =
              match Unix.select [ sock; wake_rd ] [] [] (-1.) with
              | rs, _, _ when List.mem wake_rd rs ->
                ignore (Unix.read wake_rd buf 0 1)
              | rs, _, _ when List.mem sock rs ->
                (match Unix.accept ~cloexec:true sock with
                | fd, _ -> ( try handle_conn ts fd with _ -> ())
                | exception Unix.Unix_error _ -> ());
                loop ()
              | _ -> loop ()
              | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
            in
            loop ();
            Unix.close wake_rd)
      in
      Log.info "telemetry" "serving stats on %s" bound;
      Ok { sock; bound; unlink_on_stop = unlink; wake_wr; domain })

let addr t = t.bound

let stop t =
  (try ignore (Unix.write t.wake_wr (Bytes.make 1 '\000') 0 1)
   with Unix.Unix_error _ -> ());
  Domain.join t.domain;
  (try Unix.close t.wake_wr with Unix.Unix_error _ -> ());
  (try Unix.close t.sock with Unix.Unix_error _ -> ());
  match t.unlink_on_stop with
  | Some p -> ( try Sys.remove p with Sys_error _ -> ())
  | None -> ()

(* ---- client --------------------------------------------------------- *)

let fetch ~addr ~path =
  match parse_addr addr with
  | Error e -> Error e
  | Ok parsed -> (
    let sockaddr, dom =
      match parsed with
      | Tcp (ip, port) -> (Unix.ADDR_INET (ip, port), Unix.PF_INET)
      | Sock p -> (Unix.ADDR_UNIX p, Unix.PF_UNIX)
    in
    match
      let fd = Unix.socket ~cloexec:true dom Unix.SOCK_STREAM 0 in
      (try Unix.connect fd sockaddr
       with e ->
         (try Unix.close fd with Unix.Unix_error _ -> ());
         raise e);
      fd
    with
    | exception Unix.Unix_error (err, fn, _) ->
      Error (Printf.sprintf "%s: %s" fn (Unix.error_message err))
    | fd ->
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          write_all fd (Printf.sprintf "GET %s HTTP/1.0\r\n\r\n" path);
          let buf = Buffer.create 1024 in
          let chunk = Bytes.create 4096 in
          let rec drain () =
            match Unix.read fd chunk 0 (Bytes.length chunk) with
            | 0 -> ()
            | n ->
              Buffer.add_subbytes buf chunk 0 n;
              drain ()
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> drain ()
          in
          drain ();
          let resp = Buffer.contents buf in
          match header_end resp with
          | None -> Error "malformed response (no header terminator)"
          | Some body_at ->
            let status =
              match String.index_opt resp ' ' with
              | None -> ""
              | Some i ->
                String.sub resp (i + 1)
                  (min 3 (String.length resp - i - 1))
            in
            if status = "200" then
              Ok (String.sub resp body_at (String.length resp - body_at))
            else Error (Printf.sprintf "HTTP %s" status)))
