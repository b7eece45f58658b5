type severity = Error | Warning | Info

type t = {
  severity : severity;
  code : string;
  cls : string option;
  prop : string option;
  message : string;
}

let make ?cls ?prop severity ~code message =
  { severity; code; cls; prop; message }

let makef ?cls ?prop severity ~code fmt =
  Format.kasprintf (fun message -> make ?cls ?prop severity ~code message) fmt

let is_error d = d.severity = Error
let is_warning d = d.severity = Warning
let is_info d = d.severity = Info

let severity_to_string = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

let severity_rank = function Error -> 0 | Warning -> 1 | Info -> 2

(* Subject-first ((class, prop), then code) so renderings group a class's
   diagnostics together and are byte-stable regardless of emission order
   — the emission order varies with hashtable iteration and TSE_DOMAINS
   sharding, the sorted report must not. *)
let compare a b =
  let c = Option.compare String.compare a.cls b.cls in
  if c <> 0 then c
  else
    let c = Option.compare String.compare a.prop b.prop in
    if c <> 0 then c
    else
      let c = String.compare a.code b.code in
      if c <> 0 then c
      else
        let c =
          Int.compare (severity_rank a.severity) (severity_rank b.severity)
        in
        if c <> 0 then c else String.compare a.message b.message

(* The closed registry of stable diagnostic codes. A code outside this
   list is a bug; the exhaustiveness test in test/test_analysis.ml
   asserts every entry here is actually produced by some check. *)
let declared_codes =
  [
    ("E101", "method body reads a property undefined at the class");
    ("E102", "method body reads an ambiguous (conflicting) property");
    ("E103", "In_class test names a nonexistent class");
    ("E104", "operand type mismatch");
    ("E105", "Concat on a non-string operand");
    ("E106", "division by a constant zero");
    ("E107", "non-boolean select predicate");
    ("E108", "attribute addition would collide with an inherited name");
    ("E110", "virtual class has a dangling source class");
    ("E111", "derived methods reference each other in a cycle");
    ("E112", "select predicate reads a property invisible at the source");
    ("E120", "lens: update touches a hidden property");
    ("E121", "lens: update targets an ambiguous property name");
    ("E122", "lens: update through a statically empty difference");
    ("E123", "lens: update through a constantly-false select");
    ("W201", "constant If condition (dead branch)");
    ("W202", "constantly-false select predicate (always-empty extent)");
    ("W210", "lens: create/add through select is conditional");
    ("W211", "lens: set of a membership-read attribute is conditional");
    ("W212", "lens: create/add through union targets the first operand");
    ("W213", "lens: create/add through difference is conditional");
  ]

let subject d =
  match d.cls, d.prop with
  | Some c, Some p -> Printf.sprintf " [%s.%s]" c p
  | Some c, None -> Printf.sprintf " [%s]" c
  | None, Some p -> Printf.sprintf " [%s]" p
  | None, None -> ""

let pp ppf d =
  Format.fprintf ppf "%s %s%s: %s"
    (severity_to_string d.severity)
    d.code (subject d) d.message

let to_json d =
  let esc = Tse_obs.Metrics.json_escape in
  let opt = function None -> "null" | Some s -> "\"" ^ esc s ^ "\"" in
  Printf.sprintf
    "{\"severity\":\"%s\",\"code\":\"%s\",\"class\":%s,\"prop\":%s,\"message\":\"%s\"}"
    (severity_to_string d.severity)
    (esc d.code) (opt d.cls) (opt d.prop) (esc d.message)
