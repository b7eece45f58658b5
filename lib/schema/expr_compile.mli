(** Closure compiler for {!Expr.t}.

    Lowers an expression once into flat closures so repeated evaluation
    (extent scans, reclassification fixpoints) skips the tree-walk dispatch,
    per-call env allocation and per-read name resolution of {!Expr.eval}.

    Compiled code must be dropped when the schema epoch it was compiled
    at moves ({!Tse_schema.Schema_graph.version}): the binder is consulted
    once per distinct name at compile time, so renames, new declarers of
    an attribute, or class additions can change what the closures should
    do. *)

(** How to bind the names an expression mentions. Each function is called
    once per distinct name at compile time and returns the per-object
    accessor; this is where a database can substitute a fast-path getter. *)
type 'o binder = {
  b_attr : string -> 'o -> Tse_store.Value.t;
      (** must raise {!Expr.Unknown_property} for undefined names *)
  b_member : string -> 'o -> bool;
  b_self : 'o -> Tse_store.Value.t;
}

val const_fold : Expr.t -> Expr.t
(** Exact constant folding: a folded expression evaluates to the same value
    (or raises the same class of error at the same point) as the original
    under {!Expr.eval}. Subtrees whose compile-time evaluation would raise
    are left intact. *)

val conjuncts : Expr.t -> Expr.t list
(** Flatten a top-level [And] chain, in source order. *)

val conjoin : Expr.t list -> Expr.t
(** Left-fold conjuncts back into one expression; [[]] becomes [true]. *)

val cost : Expr.t -> int
(** Static per-object evaluation cost heuristic (attribute reads dominate;
    equality comparisons rank as most selective). *)

val order_conjuncts : Expr.t list -> Expr.t list
(** Stable sort by {!cost}, cheapest first. Only sound for the top-level
    conjuncts of a predicate evaluated under error absorption (the
    [Database.holds] contract) — reordering inside [Not]/[Or] would change
    which errors escape. *)

val compile_value : 'o binder -> Expr.t -> 'o -> Tse_store.Value.t
(** Same semantics as {!Expr.eval}, including raised errors. *)

val compile_bool : 'o binder -> Expr.t -> 'o -> bool
(** Same semantics as {!Expr.eval_bool}, including raised errors. *)

val compile_pred : 'o binder -> Expr.t -> 'o -> bool
(** Full predicate pipeline: constant folding, top-level conjunct
    reordering (cheapest first), and absorption of
    {!Expr.Unknown_property}/{!Expr.Type_error} into [false] — i.e. the
    [Database.holds] membership contract. *)
