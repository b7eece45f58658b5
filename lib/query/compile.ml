(* Plan-level predicate compilation for the query engine.

   A (class, predicate) pair is lowered once into version-stable
   artifacts: the compiled whole-predicate evaluator, the cost-ordered
   conjunct breakdown with per-conjunct compiled closures and sargability
   facts, and the Select-derivation ancestry the planner can push the
   query through. Access-path choice is NOT cached — index availability
   and cardinalities change without a schema-version bump, so the planner
   re-decides per execution from these artifacts. *)

module Oid = Tse_store.Oid
module Value = Tse_store.Value
module Expr = Tse_schema.Expr
module Expr_compile = Tse_schema.Expr_compile
module Klass = Tse_schema.Klass
module Schema_graph = Tse_schema.Schema_graph
module Database = Tse_db.Database
module Metrics = Tse_obs.Metrics

type cid = Klass.cid

(* A sargable fact about one conjunct: it constrains [attr] against a
   constant, so an index on [attr] can answer it. *)
type sarg =
  | Sarg_eq of string * Value.t
  | Sarg_cmp of string * Expr.cmp * Value.t
      (* attr on the left; cmp is one of Lt/Le/Gt/Ge *)

type conjunct = {
  c_expr : Expr.t;  (* const-folded *)
  c_text : string;
  c_cost : int;
  c_sarg : sarg option;
  c_eval : Oid.t -> bool;
      (* compiled, raises like Expr.eval_bool; the executor absorbs
         errors over the whole residual chain *)
}

type compiled = {
  cp_pred : Oid.t -> bool;  (* whole predicate, Database.holds semantics *)
  cp_conjuncts : conjunct list;  (* cost-ordered, cheapest first *)
  cp_chain : (cid * conjunct list) list;
      (* Select ancestry of the queried class, nearest source first:
         [(src, conjuncts of the select's predicate); ...]. Because the
         queried extent is maintained as a subset of every ancestor's
         extent filtered by these predicates, an index on an ancestor can
         serve the query once candidates are intersected back with the
         queried extent. *)
}

let flip_cmp = function
  | Expr.Lt -> Expr.Gt
  | Expr.Le -> Expr.Ge
  | Expr.Gt -> Expr.Lt
  | Expr.Ge -> Expr.Le
  | (Expr.Eq | Expr.Ne) as op -> op

let sarg_of = function
  | Expr.Cmp (Expr.Eq, Expr.Attr a, Expr.Const v)
  | Expr.Cmp (Expr.Eq, Expr.Const v, Expr.Attr a) ->
    Some (Sarg_eq (a, v))
  | Expr.Cmp ((Expr.Lt | Expr.Le | Expr.Gt | Expr.Ge) as op, Expr.Attr a, Expr.Const v)
    ->
    Some (Sarg_cmp (a, op, v))
  | Expr.Cmp ((Expr.Lt | Expr.Le | Expr.Gt | Expr.Ge) as op, Expr.Const v, Expr.Attr a)
    ->
    Some (Sarg_cmp (a, flip_cmp op, v))
  | _ -> None

let chain_depth_cap = 8

let compile db cid pred =
  let binder = Database.compiled_binder db in
  let mk e =
    let e = Expr_compile.const_fold e in
    {
      c_expr = e;
      c_text = Expr.to_string e;
      c_cost = Expr_compile.cost e;
      c_sarg = sarg_of e;
      c_eval = Expr_compile.compile_bool binder e;
    }
  in
  let order cs =
    List.stable_sort (fun a b -> Int.compare a.c_cost b.c_cost) cs
  in
  let graph = Database.graph db in
  let rec chain c depth =
    if depth >= chain_depth_cap then []
    else
      match (Schema_graph.find_exn graph c).Klass.kind with
      | Klass.Virtual (Klass.Select (src, p)) ->
        (src, List.map mk (Expr_compile.conjuncts p)) :: chain src (depth + 1)
      | Klass.Base | Klass.Virtual _ -> []
      | exception _ -> []
  in
  {
    cp_pred = Database.compile_pred db pred;
    cp_conjuncts = order (List.map mk (Expr_compile.conjuncts pred));
    cp_chain = chain cid 0;
  }

(* --- plan cache ---------------------------------------------------------

   Keyed on (class, predicate encoding), and rebuilt empty whenever the
   schema epoch moves, so a stale compiled plan can never be returned
   after a schema evolution. *)

type cache = (string, compiled) Hashtbl.t Schema_graph.cell

let m_hits = Metrics.counter "query.plan_cache_hits"
let m_misses = Metrics.counter "query.plan_cache_misses"

let cache_capacity = 512

let create_cache () = Schema_graph.cell (fun () -> Hashtbl.create 64)

let cache_key cid pred =
  let buf = Buffer.create 64 in
  Buffer.add_string buf (string_of_int (Oid.to_int cid));
  Buffer.add_char buf '|';
  Expr.encode buf pred;
  Buffer.contents buf

let get cache db cid pred =
  let tbl = Schema_graph.current (Database.graph db) cache in
  let key = cache_key cid pred in
  match Hashtbl.find_opt tbl key with
  | Some c ->
    Metrics.incr m_hits;
    (c, true)
  | None ->
    Metrics.incr m_misses;
    if Hashtbl.length tbl >= cache_capacity then Hashtbl.reset tbl;
    let c = compile db cid pred in
    Hashtbl.replace tbl key c;
    (c, false)
