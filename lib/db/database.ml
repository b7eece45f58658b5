module Oid = Tse_store.Oid
module Value = Tse_store.Value
module Heap = Tse_store.Heap
module Stats = Tse_store.Stats
module Schema_graph = Tse_schema.Schema_graph
module Klass = Tse_schema.Klass
module Prop = Tse_schema.Prop
module Type_info = Tse_schema.Type_info
module Expr = Tse_schema.Expr
module Deps = Tse_schema.Deps
module Invariants = Tse_schema.Invariants
module Slicing = Tse_objmodel.Slicing
module Pool = Tse_pool.Pool

type cid = Klass.cid

let reclassify_fuel = 4

(* Per-object memo of select-predicate verdicts. An entry for a select
   class is the last value its predicate evaluated to for this object;
   entries are dropped when a dependency recorded in the Deps index
   changes (attribute written, membership of an observed class changed).
   [primed] means a full fixpoint has completed since the memo was
   created, so a MISSING entry proves the object was not a member of the
   select's source the last time memberships settled. *)
type verdict_state = { mutable primed : bool; verdicts : bool Oid.Tbl.t }

(* Everything the kernel derives from the schema. The whole record is
   rebuilt at the first access after the schema epoch moves. *)
type memos = {
  order : cid list Lazy.t;  (* virtual classes, sources first *)
  deps : Deps.t Lazy.t;
  verdict_cache : verdict_state Oid.Tbl.t;
  resolve_cache : (string, (cid * Prop.t) option) Hashtbl.t Oid.Tbl.t;
  pred_cache : (Oid.t -> bool) Oid.Tbl.t;  (* compiled, by select cid *)
}

type t = {
  heap : Heap.t;
  graph : Schema_graph.t;
  model : Slicing.t;
  stats : Stats.t;
  extents : Oid.Set.t ref Oid.Tbl.t;
  base_member : Oid.Set.t ref Oid.Tbl.t;  (* object -> base classes *)
  mutable listeners : (event -> unit) list;
  (* --- incremental reclassification engine --- *)
  memos : memos Schema_graph.cell;
  mutable full_reclassify : bool;  (* oracle escape hatch *)
  formula_evals : int Atomic.t;  (* also bumped from worker domains *)
  mutable nonconverge_warned : bool;
  mutable nonconvergence_hook : Oid.t -> unit;
  (* true while a parallel region reads this database from several
     domains: memoizing caches on the read path switch to bypass mode *)
  mutable shared_read : bool;
}

and event =
  | Object_created of Oid.t
  | Object_destroyed of Oid.t
  | Attr_set of Oid.t * string * Value.t
  | Reclassified of Oid.t
  | Membership_delta of Oid.t * cid list * cid list
  | Bases_changed of Oid.t

let default_nonconvergence_hook o =
  Tse_obs.Log.warn "db"
    "derivation fixpoint for object %s did not converge within %d rounds \
     (nonmonotone derivation); memberships may oscillate"
    (Oid.to_string o) (reclassify_fuel + 1)

(* Reclassification-engine counters (see DESIGN.md §9). All are plain
   field increments; eval_pred and the memo lookup are the hottest. *)
module Metrics = Tse_obs.Metrics

let m_objects_visited = Metrics.counter "reclass.objects_visited"
let m_memo_hits = Metrics.counter "reclass.verdict_memo_hits"
let m_evals = Metrics.counter "reclass.formula_evals"
let m_noop_skips = Metrics.counter "reclass.verdict_noop_skips"
let m_attr_skips = Metrics.counter "reclass.untouched_attr_skips"
let m_rounds = Metrics.counter "reclass.fixpoint_rounds"
let m_fuel_exhausted = Metrics.counter "reclass.fuel_exhausted"
let m_nonconvergence = Metrics.counter "reclass.nonconvergence_warnings"
let m_compiled_evals = Metrics.counter "reclass.compiled_evals"
let m_pred_compiles = Metrics.counter "reclass.pred_compiles"

let env_full_reclassify () =
  match Sys.getenv_opt "DB_FULL_RECLASSIFY" with
  | Some ("1" | "true" | "yes") -> true
  | Some _ | None -> false

(* Virtual classes topologically sorted by the derivation DAG (sources
   first). Base classes do not appear. *)
let compute_derivation_order graph =
  let virtuals = List.filter Klass.is_virtual (Schema_graph.classes graph) in
  let pending = Oid.Tbl.create 16 in
  List.iter (fun (k : Klass.t) -> Oid.Tbl.replace pending k.cid k) virtuals;
  let order = ref [] in
  let rec emit (k : Klass.t) =
    if Oid.Tbl.mem pending k.cid then begin
      Oid.Tbl.remove pending k.cid;
      List.iter
        (fun src ->
          match Oid.Tbl.find_opt pending src with
          | Some ksrc -> emit ksrc
          | None -> ())
        (Klass.sources k);
      order := k.cid :: !order
    end
  in
  List.iter emit virtuals;
  List.rev !order

let fresh_memos graph () =
  {
    order = lazy (compute_derivation_order graph);
    deps = lazy (Deps.compute graph);
    verdict_cache = Oid.Tbl.create 256;
    resolve_cache = Oid.Tbl.create 256;
    pred_cache = Oid.Tbl.create 16;
  }

let make ~heap ~graph ~model ~stats =
  {
    heap;
    graph;
    model;
    stats;
    extents = Oid.Tbl.create 64;
    base_member = Oid.Tbl.create 256;
    listeners = [];
    memos = Schema_graph.cell (fresh_memos graph);
    full_reclassify = env_full_reclassify ();
    formula_evals = Atomic.make 0;
    nonconverge_warned = false;
    nonconvergence_hook = default_nonconvergence_hook;
    shared_read = false;
  }

let create () =
  let heap = Heap.create () in
  let graph = Schema_graph.create ~gen:(Heap.gen heap) in
  let stats = Stats.create () in
  make ~heap ~graph ~model:(Slicing.create ~graph ~heap ~stats) ~stats

let memos t = Schema_graph.current t.graph t.memos

(* Retire every per-object verdict memo: the next reclassification of
   each object evaluates its predicates from scratch. *)
let reset_verdicts t = Oid.Tbl.reset (memos t).verdict_cache

let add_listener t f = t.listeners <- t.listeners @ [ f ]
let notify t event = List.iter (fun f -> f event) t.listeners

let graph t = t.graph
let heap t = t.heap
let model t = t.model
let stats t = t.stats
let root t = Schema_graph.root t.graph

let formula_eval_count t = Atomic.get t.formula_evals
let full_reclassify t = t.full_reclassify

let set_full_reclassify t b =
  if not (Bool.equal t.full_reclassify b) then begin
    t.full_reclassify <- b;
    (* verdict memos were not maintained while the oracle path ran *)
    reset_verdicts t
  end

let set_nonconvergence_hook t f = t.nonconvergence_hook <- f

let warn_nonconvergence t o =
  Metrics.incr m_nonconvergence;
  if not t.nonconverge_warned then begin
    t.nonconverge_warned <- true;
    t.nonconvergence_hook o
  end

let extent_ref t cid =
  Oid.Tbl.find_or_add t.extents cid (fun _ -> ref Oid.Set.empty)

let extent t cid = !(extent_ref t cid)
let extent_list t cid = Oid.Set.elements (extent t cid)
let extent_size t cid = Oid.Set.cardinal (extent t cid)

(* Schema-derived state needs no invalidation here: the class's
   registration moved the epoch. *)
let note_new_class t cid = ignore (extent_ref t cid)
let note_removed_class t cid = Oid.Tbl.remove t.extents cid
let derivation_order t = Lazy.force (memos t).order
let deps t = Lazy.force (memos t).deps

(* Enter shared-read mode for a parallel region: worker domains will
   evaluate predicates against this database concurrently, so every
   memo a read can touch must be either bypassed ([resolve_prop] checks
   the flag) or warmed here on the coordinating domain, so that worker
   lookups are pure reads at the current epoch: the ancestor memo, the
   derivation order and the Deps index. *)
let with_shared_read t f =
  List.iter
    (fun (k : Klass.t) -> ignore (Schema_graph.ancestors t.graph k.Klass.cid))
    (Schema_graph.classes t.graph);
  ignore (derivation_order t);
  ignore (deps t);
  t.shared_read <- true;
  Fun.protect ~finally:(fun () -> t.shared_read <- false) f

let verdict_state t o =
  Oid.Tbl.find_or_add (memos t).verdict_cache o (fun _ ->
      { primed = false; verdicts = Oid.Tbl.create 8 })

let base_membership t o =
  match Oid.Tbl.find_opt t.base_member o with
  | Some r -> !r
  | None -> Oid.Set.empty

let is_member t o cid = Slicing.is_member t.model o cid
let member_classes t o = Slicing.member_classes t.model o
let objects t = Slicing.objects t.model
let object_count t = Slicing.object_count t.model
let mem_object t o = Oid.Tbl.mem t.base_member o

let membership_set t o =
  List.fold_left
    (fun acc c -> Oid.Set.add c acc)
    Oid.Set.empty (member_classes t o)

(* ------------------------------------------------------------------ *)
(* Property access                                                     *)
(* ------------------------------------------------------------------ *)

(* Resolve which member class's local definition of [name] applies to [o]:
   most specific member class; among unrelated candidates a promoted
   definition wins; remaining ties are a real ambiguity. *)
let resolve_prop_uncached t o name =
  let candidates =
    List.filter_map
      (fun cid ->
        match Klass.local_prop (Schema_graph.find_exn t.graph cid) name with
        | Some p -> Some (cid, p)
        | None -> None)
      (member_classes t o)
  in
  match candidates with
  | [] -> None
  | [ c ] -> Some c
  | candidates ->
    let not_overridden (cid, _) =
      not
        (List.exists
           (fun (other, _) ->
             (not (Oid.equal other cid))
             && Schema_graph.is_strict_ancestor t.graph ~anc:cid ~desc:other)
           candidates)
    in
    let minimal = List.filter not_overridden candidates in
    (match minimal with
    | [ c ] -> Some c
    | minimal -> begin
      match List.filter (fun (_, (p : Prop.t)) -> p.promoted) minimal with
      | [ c ] -> Some c
      | _ ->
        (* distinct unrelated properties under one name: invocable only
           after renaming (Section 6.1.1) *)
        let distinct_uids =
          List.sort_uniq Int.compare
            (List.map (fun (_, (p : Prop.t)) -> p.uid) minimal)
        in
        if List.length distinct_uids <= 1 then
          (match minimal with c :: _ -> Some c | [] -> None)
        else
          raise
            (Expr.Type_error
               (Printf.sprintf "ambiguous property %s (rename to disambiguate)"
                  name))
    end)

(* Memoized per object: formula evaluation otherwise re-resolves every
   property linearly over the member classes. The memo is keyed on the
   membership signature implicitly — any membership change for the object
   drops its table, any schema change retires it with the epoch. The
   ambiguous case raises and is deliberately not cached. *)
let resolve_tbl t o =
  Oid.Tbl.find_or_add (memos t).resolve_cache o (fun _ -> Hashtbl.create 8)

let resolve_prop t o name =
  if t.shared_read then
    (* Parallel region: several domains resolve concurrently, so the
       per-object memo table must not be touched. Resolution is pure. *)
    resolve_prop_uncached t o name
  else begin
    let tbl = resolve_tbl t o in
    match Hashtbl.find_opt tbl name with
    | Some r -> r
    | None ->
      let r = resolve_prop_uncached t o name in
      Hashtbl.replace tbl name r;
      r
  end

let rec get_prop t o name =
  match resolve_prop t o name with
  | None -> raise (Expr.Unknown_property name)
  | Some (_cid, p) -> begin
    match p.Prop.body with
    | Prop.Stored _ -> Slicing.get_attr t.model o name
    | Prop.Method e -> Expr.eval (env t o) e
  end

and env t o =
  {
    Expr.self = o;
    get = (fun name -> get_prop t o name);
    member_of =
      (fun cname ->
        match Schema_graph.find_by_name t.graph cname with
        | Some k -> is_member t o k.cid
        | None -> false);
  }

let eval t o e = Expr.eval (env t o) e

let holds t o e =
  (* an object that lacks the property — or holds a null that cannot be
     ordered — simply does not satisfy the predicate *)
  match Expr.eval_bool (env t o) e with
  | b -> b
  | exception Expr.Unknown_property _ -> false
  | exception Expr.Type_error _ -> false

(* ------------------------------------------------------------------ *)
(* Compiled predicate evaluation                                       *)
(* ------------------------------------------------------------------ *)

(* Binder for Expr_compile: names are resolved once at compile time.

   The attribute fast path rests on a static fact about the whole graph:
   when exactly ONE class declares a stored local property under [name],
   per-object resolution can only ever pick that class (a non-member
   raises Unknown_property, a member reads its slice at that class, with
   the declared default standing in for an unset slot). That skips the
   member_classes fold + candidate filtering that [get_prop] pays on
   every read. Any other shape — several declarers, a method, no
   declarer — falls back to the dynamic resolver, which is always
   correct. *)
let compiled_binder t =
  let b_attr name =
    let declaring =
      List.filter_map
        (fun (k : Klass.t) ->
          match Klass.local_prop k name with
          | Some p -> Some (k.cid, p)
          | None -> None)
        (Schema_graph.classes t.graph)
    in
    match declaring with
    | [ (cid, { Prop.body = Prop.Stored { default; _ }; _ }) ] ->
      let read = Slicing.slot_reader t.model cid name in
      fun o -> begin
        match read o with
        | Some Value.Null -> default
        | Some v -> v
        | None -> raise (Expr.Unknown_property name)
      end
    | _ -> fun o -> get_prop t o name
  in
  let b_member cname =
    match Schema_graph.find_by_name t.graph cname with
    | Some k ->
      let cid = k.Klass.cid in
      fun o -> is_member t o cid
    | None -> fun _ -> false
  in
  {
    Tse_schema.Expr_compile.b_attr;
    b_member;
    b_self = (fun o -> Value.Ref o);
  }

let compile_pred t pred =
  Metrics.incr m_pred_compiles;
  Tse_schema.Expr_compile.compile_pred (compiled_binder t) pred

(* Per-select-class cache of compiled predicates, used by the
   reclassification engine. The oracle path deliberately keeps the
   interpreted [eval_pred] so differential tests compare compiled against
   interpreted evaluation. *)
let compiled_select_pred t cid pred =
  Oid.Tbl.find_or_add (memos t).pred_cache cid (fun _ -> compile_pred t pred)

(* ------------------------------------------------------------------ *)
(* Membership fixpoint                                                  *)
(* ------------------------------------------------------------------ *)

let isa_closure t set =
  Oid.Set.fold
    (fun c acc -> Oid.Set.union acc (Schema_graph.ancestors t.graph c))
    set set

(* One shape for the oracle, the cached engine and the checker: only how
   a select predicate's verdict is obtained differs. *)
let formula_holds_with pred_fn current (k : Klass.t) =
  let mem c = Oid.Set.mem c current in
  match k.kind with
  | Klass.Base -> Oid.Set.mem k.cid current
  | Klass.Virtual d -> begin
    match d with
    | Klass.Select (c, pred) -> mem c && pred_fn k.cid pred
    | Klass.Hide (_, c) -> mem c
    | Klass.Refine (_, c) -> mem c
    | Klass.Refine_from { target; _ } -> mem target
    | Klass.Union (a, b) -> mem a || mem b
    | Klass.Intersect (a, b) -> mem a && mem b
    | Klass.Difference (a, b) -> mem a && not (mem b)
  end

let formula_holds t o current k =
  formula_holds_with (fun _ pred -> holds t o pred) current k

let eval_pred t o pred =
  Atomic.incr t.formula_evals;
  Metrics.incr m_evals;
  holds t o pred

(* The incremental engine's evaluation path: same verdict as [eval_pred]
   (Expr_compile.compile_pred implements the [holds] contract), obtained
   through the per-select compiled closure. *)
let eval_pred_compiled t o cid pred =
  Atomic.incr t.formula_evals;
  Metrics.incr m_evals;
  Metrics.incr m_compiled_evals;
  (compiled_select_pred t cid pred) o

let cached_verdict t vs o cid pred =
  match Oid.Tbl.find_opt vs.verdicts cid with
  | Some b ->
    Metrics.incr m_memo_hits;
    b
  | None ->
    let b = eval_pred_compiled t o cid pred in
    Oid.Tbl.replace vs.verdicts cid b;
    b

(* Desired membership of [o] after one pass over the derivation order.
   Formulas are evaluated IN-ROUND against the set built so far: the
   derivation order guarantees every class's sources were decided earlier
   in the same pass, so one pass computes the complete membership —
   crucially, a class the object remains a member of is never transiently
   absent, which would destroy its implementation slice (and the stored
   data it carries) during synchronization. *)
let membership_round t ~pred_fn ~base_closure ~order =
  let m = ref base_closure in
  List.iter
    (fun cid ->
      let k = Schema_graph.find_exn t.graph cid in
      if formula_holds_with pred_fn !m k then begin
        m := Oid.Set.add cid !m;
        m := Oid.Set.union !m (Schema_graph.ancestors t.graph cid)
      end)
    order;
  Oid.Set.remove (root t) !m

let remove_from_extents t o =
  Oid.Tbl.iter (fun _ r -> r := Oid.Set.remove o !r) t.extents

let sync_extents t o membership =
  remove_from_extents t o;
  Oid.Set.iter
    (fun cid -> extent_ref t cid := Oid.Set.add o !(extent_ref t cid))
    membership

(* Synchronize the object model mid-fixpoint and keep the property
   resolution memo honest: a membership change invalidates it. *)
let set_membership_sync t o next =
  Slicing.set_membership t.model o (Oid.Set.elements next);
  Oid.Tbl.remove (memos t).resolve_cache o

let delta_events t o ~before ~after =
  let added = Oid.Set.diff after before in
  let removed = Oid.Set.diff before after in
  if not (Oid.Set.is_empty added && Oid.Set.is_empty removed) then
    notify t
      (Membership_delta (o, Oid.Set.elements added, Oid.Set.elements removed))

(* --- oracle: the literal Section 3.2 full fixpoint ------------------ *)

(* Every select predicate is re-evaluated in every round and the extent
   index is rebuilt with a full per-class sweep — kept verbatim as the
   correctness oracle (DB_FULL_RECLASSIFY=1) and the bench baseline. *)
let reclassify_oracle t o =
  Metrics.incr m_objects_visited;
  let base = base_membership t o in
  let order = derivation_order t in
  let base_closure = isa_closure t base in
  let before = membership_set t o in
  let pred_fn _cid pred = eval_pred t o pred in
  (* convergence means: the round's output equals the membership it was
     EVALUATED under. Predicates read the object model (In_class tests,
     attribute resolution through slices), so comparing against the
     previous round's output alone can declare a fixpoint whose verdicts
     were computed against a stale model — e.g. when joining a base class
     makes a select's In_class test true but the output happens to equal
     the base closure. *)
  let rec fix evaluated_under fuel =
    Metrics.incr m_rounds;
    let next = membership_round t ~pred_fn ~base_closure ~order in
    set_membership_sync t o next;
    if Oid.Set.equal next evaluated_under then next
    else if fuel = 0 then begin
      (* nonmonotone derivations may not converge *)
      Metrics.incr m_fuel_exhausted;
      Tse_obs.Watchdog.fuel_pressure ~what:"oracle";
      warn_nonconvergence t o;
      next
    end
    else fix next (fuel - 1)
  in
  let final = fix before reclassify_fuel in
  sync_extents t o final;
  notify t (Reclassified o);
  delta_events t o ~before ~after:final

(* --- incremental engine -------------------------------------------- *)

(* Apply one round's membership outcome: sync the model and drop the
   verdicts the Deps index says a membership change can invalidate, so
   the next round re-evaluates exactly those predicates. *)
let apply_round t vs o ~prev ~next =
  if not (Oid.Set.equal prev next) then begin
    set_membership_sync t o next;
    let d = deps t in
    let changed =
      Oid.Set.union (Oid.Set.diff prev next) (Oid.Set.diff next prev)
    in
    Oid.Set.iter
      (fun x ->
        Oid.Set.iter
          (fun s -> Oid.Tbl.remove vs.verdicts s)
          (Deps.selects_on_class d x))
      changed
  end

let run_incremental_fixpoint t vs o =
  Metrics.incr m_objects_visited;
  let before = membership_set t o in
  let base_closure = isa_closure t (base_membership t o) in
  let order = derivation_order t in
  let pred_fn cid pred = cached_verdict t vs o cid pred in
  let model_now = ref before in
  (* same convergence rule as the oracle: stop only when the round's
     output equals the membership it was evaluated under; apply_round's
     verdict invalidation makes the confirming round re-evaluate exactly
     the predicates a membership change can have flipped *)
  let rec fix fuel =
    Metrics.incr m_rounds;
    let evaluated_under = !model_now in
    let next = membership_round t ~pred_fn ~base_closure ~order in
    apply_round t vs o ~prev:evaluated_under ~next;
    model_now := next;
    if Oid.Set.equal next evaluated_under then next
    else if fuel = 0 then begin
      Metrics.incr m_fuel_exhausted;
      Tse_obs.Watchdog.fuel_pressure ~what:"incremental";
      warn_nonconvergence t o;
      next
    end
    else fix (fuel - 1)
  in
  let final = fix reclassify_fuel in
  vs.primed <- true;
  (* extent deltas: add/remove per changed class, never a full sweep *)
  let added = Oid.Set.diff final before in
  let removed = Oid.Set.diff before final in
  Oid.Set.iter
    (fun c -> extent_ref t c := Oid.Set.add o !(extent_ref t c))
    added;
  Oid.Set.iter
    (fun c ->
      match Oid.Tbl.find_opt t.extents c with
      | Some r -> r := Oid.Set.remove o !r
      | None -> ())
    removed;
  notify t (Reclassified o);
  if not (Oid.Set.is_empty added && Oid.Set.is_empty removed) then
    notify t
      (Membership_delta (o, Oid.Set.elements added, Oid.Set.elements removed))

(* [dirty = Some s]: the verdicts of the selects in [s] are suspect (an
   attribute they read was written); anything else is known-good, so if
   re-evaluating them changes nothing, memberships cannot have moved and
   the whole reclassification is a no-op. [dirty = None]: the membership
   STRUCTURE changed (base classes moved) — cached verdicts stay valid,
   but the fixpoint must run. *)
let reclassify_incr t o dirty =
  let vs = verdict_state t o in
  let must_run =
    match dirty with
    | None -> true
    | Some set when vs.primed ->
      Oid.Set.fold
        (fun cid changed ->
          match Oid.Tbl.find_opt vs.verdicts cid with
          | None ->
            (* never evaluated under this generation: the object was not a
               member of the select's source when memberships last
               settled, and an attribute write cannot make it one *)
            changed
          | Some old -> begin
            match (Schema_graph.find_exn t.graph cid).kind with
            | Klass.Virtual (Klass.Select (_, pred)) ->
              let now = eval_pred_compiled t o cid pred in
              Oid.Tbl.replace vs.verdicts cid now;
              changed || not (Bool.equal old now)
            | Klass.Base | Klass.Virtual _ -> changed
          end)
        set false
    | Some set ->
      (* unprimed: no fixpoint has run under this generation; stale
         entries cannot exist, but nothing can be proven either *)
      Oid.Set.iter (Oid.Tbl.remove vs.verdicts) set;
      true
  in
  if must_run then run_incremental_fixpoint t vs o
  else Metrics.incr m_noop_skips

let reclassify t o =
  if t.full_reclassify then reclassify_oracle t o
  else reclassify_incr t o None

(* --- parallel bulk reclassification --------------------------------- *)

let m_par_batches = Metrics.counter "reclass.parallel_batches"
let m_par_unchanged = Metrics.counter "reclass.parallel_unchanged"

(* Phase-1 result for one object: the outcome of a single membership
   round evaluated against the pre-batch state, plus the verdicts that
   round computed fresh (memo hits are not re-recorded, matching
   [cached_verdict]). *)
type pre_round = {
  pv_before : Oid.Set.t;
  pv_next : Oid.Set.t;
  pv_new : (cid * bool) list;
}

(* Workers must never hit the compile-on-miss branch of
   [compiled_select_pred]: build every select's closure on the
   coordinator first, so in-region lookups are read-only hits. *)
let precompile_selects t =
  List.iter
    (fun cid ->
      match (Schema_graph.find_exn t.graph cid).Klass.kind with
      | Klass.Virtual (Klass.Select (_, pred)) ->
        ignore (compiled_select_pred t cid pred : Oid.t -> bool)
      | Klass.Base | Klass.Virtual _ -> ())
    (derivation_order t)

(* One membership round for [o], read-only against shared state: verdict
   memos are probed but never written (fresh verdicts go into a local
   table and the returned list), so any number of objects can run this
   concurrently.  Predicates only ever read the object they are applied
   to — the Expr language has no cross-object dereference — which is
   what makes per-object rounds independent. *)
let pre_round t o =
  let before = membership_set t o in
  let base_closure = isa_closure t (base_membership t o) in
  let order = derivation_order t in
  let shared =
    Option.map (fun vs -> vs.verdicts)
      (Oid.Tbl.find_opt (memos t).verdict_cache o)
  in
  let local = Oid.Tbl.create 8 in
  let fresh = ref [] in
  let pred_fn cid pred =
    match Oid.Tbl.find_opt local cid with
    | Some b -> b
    | None ->
      let memo =
        match shared with
        | Some tbl -> Oid.Tbl.find_opt tbl cid
        | None -> None
      in
      let b =
        match memo with
        | Some b ->
          Metrics.incr m_memo_hits;
          b
        | None ->
          let b = eval_pred_compiled t o cid pred in
          fresh := (cid, b) :: !fresh;
          b
      in
      Oid.Tbl.replace local cid b;
      b
  in
  let next = membership_round t ~pred_fn ~base_closure ~order in
  { pv_before = before; pv_next = next; pv_new = List.rev !fresh }

(* Merge one phase-1 result on the coordinating domain, in input order.
   Unchanged objects replay exactly what the sequential fixpoint would
   have done for them — memo writes, primed flag, counters, and the
   [Reclassified] event, with no model or extent mutation.  Changed
   objects seed their memo with the phase-1 verdicts (still valid: they
   were computed under the same pre-batch membership the sequential
   round 1 would use) and run the ordinary incremental engine. *)
let integrate_pre t o pre =
  let vs = verdict_state t o in
  List.iter (fun (cid, b) -> Oid.Tbl.replace vs.verdicts cid b) pre.pv_new;
  if Oid.Set.equal pre.pv_next pre.pv_before then begin
    vs.primed <- true;
    Metrics.incr m_par_unchanged;
    Metrics.incr m_objects_visited;
    Metrics.incr m_rounds;
    notify t (Reclassified o)
  end
  else reclassify_incr t o None

(* Bulk reclassification of [os], in list order.  Below the parallel
   threshold — or with a single-domain pool, or under the oracle — this
   IS the sequential loop; above it, per-object verdict rounds fan out
   across the pool (phase 1, read-only) and are integrated one by one on
   the coordinating domain (phase 2: memo merges, model/extent mutation,
   events), preserving the sequential event order exactly. *)
let reclassify_many t os =
  let pool = Pool.global () in
  let n = List.length os in
  if t.full_reclassify || Pool.size pool <= 1 || n < Pool.threshold () then
    List.iter (fun o -> reclassify t o) os
  else begin
    Tse_obs.Trace.with_span "reclassify.parallel" @@ fun () ->
    Metrics.incr m_par_batches;
    precompile_selects t;
    let objs = Array.of_list os in
    let pres = Array.make n None in
    with_shared_read t (fun () ->
        Pool.run pool ~n (fun ~lo ~hi ->
            for i = lo to hi - 1 do
              pres.(i) <- Some (pre_round t objs.(i))
            done));
    Array.iteri
      (fun i pre -> integrate_pre t objs.(i) (Option.get pre))
      pres
  end

(* The recompute-the-world entry point: it starts from cold verdict memos,
   so it also repairs memberships that went stale behind the kernel's
   back (slot writes straight to the heap). *)
let reclassify_all t =
  reset_verdicts t;
  reclassify_many t (objects t)

(* ------------------------------------------------------------------ *)
(* Object lifecycle                                                    *)
(* ------------------------------------------------------------------ *)

let set_attr t o name v =
  (match resolve_prop t o name with
  | None -> raise (Expr.Unknown_property name)
  | Some (_, p) -> begin
    match p.Prop.body with
    | Prop.Method _ ->
      raise (Expr.Type_error (Printf.sprintf "%s is a method, not settable" name))
    | Prop.Stored { ty; _ } ->
      if not (Value.conforms v ty) then
        raise
          (Expr.Type_error
             (Format.asprintf "%a does not conform to %a for attribute %s"
                Value.pp v Value.pp_ty ty name))
  end);
  Slicing.set_attr t.model o name v;
  notify t (Attr_set (o, name, v));
  if t.full_reclassify then reclassify_oracle t o
  else begin
    let dirty = Deps.selects_on_attr (deps t) name in
    (* an attribute no derivation predicate can observe: memberships are
       untouched, skip reclassification entirely *)
    if Oid.Set.is_empty dirty then Metrics.incr m_attr_skips
    else reclassify_incr t o (Some dirty)
  end

(* Stored base membership is kept MINIMAL: a class implied by another
   member (as its ancestor) is dropped, and the upward closure is
   recomputed at every reclassification. This is what lets a later
   delete_edge change what an object is a member of — closures are never
   frozen at creation time. *)
let minimal_bases t set =
  Oid.Set.filter
    (fun c ->
      not
        (Oid.Set.exists
           (fun d ->
             (not (Oid.equal c d))
             && Schema_graph.is_strict_ancestor t.graph ~anc:c ~desc:d)
           set))
    set

let create_object ?(init = []) t cid =
  let k = Schema_graph.find_exn t.graph cid in
  if Klass.is_virtual k then
    invalid_arg
      (Printf.sprintf "Database.create_object: %s is virtual" k.name);
  let o = Slicing.create_object t.model cid in
  Oid.Tbl.replace t.base_member o (ref (Oid.Set.singleton cid));
  (* seed the extent index with the full initial membership (the creation
     class and its ancestors, already materialized by the object model) so
     delta maintenance starts from a consistent membership/extent pair *)
  List.iter
    (fun c -> extent_ref t c := Oid.Set.add o !(extent_ref t c))
    (member_classes t o);
  (* creation is announced before the init writes, so listeners never
     observe Attr_set for an object they were not told exists *)
  notify t (Object_created o);
  notify t (Bases_changed o);
  (* classify first so attributes carried by refine slices are storable;
     each assignment re-derives select-class memberships *)
  reclassify t o;
  List.iter (fun (name, v) -> set_attr t o name v) init;
  o

let destroy_object t o =
  if t.full_reclassify then remove_from_extents t o
  else
    List.iter
      (fun c ->
        match Oid.Tbl.find_opt t.extents c with
        | Some r -> r := Oid.Set.remove o !r
        | None -> ())
      (member_classes t o);
  Oid.Tbl.remove t.base_member o;
  let m = memos t in
  Oid.Tbl.remove m.verdict_cache o;
  Oid.Tbl.remove m.resolve_cache o;
  Slicing.destroy_object t.model o;
  notify t (Object_destroyed o)

let add_base_membership t o cid =
  let k = Schema_graph.find_exn t.graph cid in
  if Klass.is_virtual k then
    invalid_arg "Database.add_base_membership: virtual class";
  let r =
    match Oid.Tbl.find_opt t.base_member o with
    | Some r -> r
    | None -> invalid_arg "Database.add_base_membership: unknown object"
  in
  r := minimal_bases t (Oid.Set.add cid !r);
  notify t (Bases_changed o);
  reclassify t o

let remove_base_membership t o cid =
  let r =
    match Oid.Tbl.find_opt t.base_member o with
    | Some r -> r
    | None -> invalid_arg "Database.remove_base_membership: unknown object"
  in
  (* expand to the full implied base membership, subtract the class and
     its descendants, and re-minimalize: losing TA-ness this way keeps the
     TeachingStaff-ness the object had through TA *)
  let is_base c = Klass.is_base (Schema_graph.find_exn t.graph c) in
  let expanded =
    Oid.Set.filter is_base (isa_closure t !r) |> Oid.Set.remove (root t)
  in
  let dead = Oid.Set.add cid (Schema_graph.descendants t.graph cid) in
  r := minimal_bases t (Oid.Set.diff expanded dead);
  notify t (Bases_changed o);
  reclassify t o


let restore ~heap ~graph ~bases =
  let stats = Stats.create () in
  let t = make ~heap ~graph ~model:(Slicing.rebuild ~graph ~heap ~stats) ~stats in
  List.iter (note_new_class t) (Schema_graph.cids graph);
  List.iter
    (fun (o, cids) ->
      Oid.Tbl.replace t.base_member o
        (ref (List.fold_left (fun acc c -> Oid.Set.add c acc) Oid.Set.empty cids)))
    bases;
  (* extents re-derived from the restored membership facts *)
  List.iter
    (fun o ->
      List.iter
        (fun cid -> extent_ref t cid := Oid.Set.add o !(extent_ref t cid))
        (member_classes t o))
    (objects t);
  t

(* ------------------------------------------------------------------ *)
(* Consistency oracle                                                  *)
(* ------------------------------------------------------------------ *)

let check t =
  let problems = ref (Invariants.check t.graph) in
  let add fmt = Format.kasprintf (fun s -> problems := !problems @ [ s ]) fmt in
  let name_of = Schema_graph.name_of t.graph in
  (* extent index vs model membership *)
  List.iter
    (fun (k : Klass.t) ->
      if not (Oid.equal k.cid (root t)) then begin
        let ext = extent t k.cid in
        List.iter
          (fun o ->
            if not (is_member t o k.cid) then
              add "extent of %s lists non-member %s" k.name (Oid.to_string o))
          (Oid.Set.elements ext)
      end)
    (Schema_graph.classes t.graph);
  List.iter
    (fun o ->
      List.iter
        (fun cid ->
          if not (Oid.Set.mem o (extent t cid)) then
            add "object %s member of %s but missing from its extent"
              (Oid.to_string o) (name_of cid))
        (member_classes t o))
    (objects t);
  (* is-a extent subset invariant *)
  List.iter
    (fun (k : Klass.t) ->
      List.iter
        (fun sup ->
          if not (Oid.equal sup (root t)) then
            if not (Oid.Set.subset (extent t k.cid) (extent t sup)) then
              add "extent(%s) not a subset of extent(%s)" k.name (name_of sup))
        k.supers)
    (Schema_graph.classes t.graph);
  (* derivation formulas *)
  List.iter
    (fun cid ->
      let k = Schema_graph.find_exn t.graph cid in
      List.iter
        (fun o ->
          let current =
            List.fold_left
              (fun acc c -> Oid.Set.add c acc)
              Oid.Set.empty (member_classes t o)
          in
          let should = formula_holds t o current k in
          let has = Oid.Set.mem cid current in
          if should && not has then
            add "object %s should be a member of %s by its derivation"
              (Oid.to_string o) k.name
          else if has && not should then
            add "object %s is a member of %s against its derivation"
              (Oid.to_string o) k.name)
        (objects t))
    (derivation_order t);
  !problems

let check_exn t =
  match check t with
  | [] -> ()
  | problems ->
    failwith ("database inconsistent:\n  " ^ String.concat "\n  " problems)

let pp_extents ppf t =
  let classes =
    Schema_graph.classes t.graph
    |> List.sort (fun (a : Klass.t) b -> String.compare a.name b.name)
  in
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun (k : Klass.t) ->
      if not (Oid.equal k.cid (root t)) then
        Format.fprintf ppf "%s: {%s}@ " k.name
          (String.concat ", "
             (List.map Oid.to_string (extent_list t k.cid))))
    classes;
  Format.fprintf ppf "@]"
