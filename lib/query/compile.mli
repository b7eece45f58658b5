(** Plan-level predicate compilation and the plan cache.

    Lowers a [(class, predicate)] pair once per schema state into the
    version-stable artifacts the planner and executor consume: the
    compiled whole-predicate evaluator, the cost-ordered conjunct
    breakdown (with per-conjunct compiled closures and sargability
    facts), and the Select-derivation ancestry for predicate pushdown.
    Access-path choice is deliberately not part of the cached artifact:
    indexes come and go without a schema-version bump, so the planner
    re-decides per execution. *)

type cid = Tse_schema.Klass.cid

(** A sargable fact: the conjunct constrains an attribute against a
    constant, so an index on that attribute can answer it. *)
type sarg =
  | Sarg_eq of string * Tse_store.Value.t
  | Sarg_cmp of string * Tse_schema.Expr.cmp * Tse_store.Value.t
      (** attribute on the left; the comparison is Lt/Le/Gt/Ge *)

type conjunct = {
  c_expr : Tse_schema.Expr.t;  (** const-folded *)
  c_text : string;
  c_cost : int;  (** {!Tse_schema.Expr_compile.cost} *)
  c_sarg : sarg option;
  c_eval : Tse_store.Oid.t -> bool;
      (** compiled; raises like [Expr.eval_bool] — the executor absorbs
          errors over the whole residual chain, matching
          [Database.holds] *)
}

type compiled = {
  cp_pred : Tse_store.Oid.t -> bool;
      (** whole predicate, [Database.holds] semantics *)
  cp_conjuncts : conjunct list;  (** cost-ordered, cheapest first *)
  cp_chain : (cid * conjunct list) list;
      (** Select ancestry, nearest source first: each entry is a source
          class and the conjuncts of the select predicate deriving the
          previous level from it *)
}

val sarg_of : Tse_schema.Expr.t -> sarg option
val compile : Tse_db.Database.t -> cid -> Tse_schema.Expr.t -> compiled

(** {2 Plan cache}

    Keyed on the predicate's stable encoding per class; a schema-epoch
    cell ({!Tse_schema.Schema_graph.current}), so a compiled plan built
    at an old epoch is never reused. *)

type cache

val create_cache : unit -> cache

val get : cache -> Tse_db.Database.t -> cid -> Tse_schema.Expr.t -> compiled * bool
(** The compiled artifact and whether it was a cache hit. Counters:
    [query.plan_cache_hits] / [query.plan_cache_misses]. *)
