(* Seeded schema-change chains that are valid by construction.

   The generator never asks the library anything: it keeps its own model
   of the view (class names and the is-a closure among them) and updates
   it the way each change updates the view, so a chain is a pure function
   of the seed and the library only ever receives the generated changes.

   The chain repeats a fixed block of 20 changes: 9 [Add_attribute], 6
   [Add_method] and one each of [Add_class], [Add_edge], [Insert_class]
   (first block only, see below), [Partition_class] and [Rename_class].
   The class each change names cycles through the view in order, because
   the cost of a change depends mostly on which class it hits; the other
   end of an edge is the youngest class that qualifies. The seed picks
   what does not steer the cost: attribute defaults, method bodies and
   partition thresholds. So the chains of all seeds walk the same shape
   of history, and a run's figures compare across seeds. *)

open Tse_core
module Value = Tse_store.Value
module Expr = Tse_schema.Expr
module IS = Set.Make (Int)

type cls = { id : int; mutable name : string; mutable anc : IS.t }

type t = {
  rng : Random.State.t;
  mutable classes : cls list;  (** view order: definition order *)
  person : int;  (** the class every [age]/[ssn] holder descends from *)
  mutable next_id : int;
  mutable cursor : int;
  mutable step : int;
}

and kind = Attr | Meth | Class | Edge | Insert | Partition | Rename

(* Figure 2's hierarchy, subclass after its superclasses. *)
let university =
  [
    ("Person", []);
    ("Student", [ "Person" ]);
    ("Staff", [ "Person" ]);
    ("TeachingStaff", [ "Staff" ]);
    ("SupportStaff", [ "Staff" ]);
    ("TA", [ "Student"; "TeachingStaff" ]);
    ("Grad", [ "Student" ]);
    ("Grader", [ "TA" ]);
  ]

let create ~seed =
  let classes =
    List.fold_left
      (fun acc (name, supers) ->
        let anc =
          List.fold_left
            (fun s sup ->
              let c = List.find (fun c -> String.equal c.name sup) acc in
              IS.add c.id (IS.union s c.anc))
            IS.empty supers
        in
        acc @ [ { id = List.length acc; name; anc } ])
      [] university
  in
  {
    rng = Random.State.make [| 0x75e; seed |];
    classes;
    person = 0;
    next_id = List.length classes;
    cursor = 0;
    step = 0;
  }

let has_age t c = c.id = t.person || IS.mem t.person c.anc

let block_kinds =
  [ Attr; Meth; Attr; Meth; Attr; Class; Attr; Meth; Edge; Attr;
    Meth; Attr; Partition; Meth; Attr; Insert; Attr; Meth; Rename; Attr ]

let youngest = function [] -> None | l -> Some (List.nth l (List.length l - 1))

let fresh t name anc =
  let c = { id = t.next_id; name; anc } in
  t.next_id <- t.next_id + 1;
  t.classes <- t.classes @ [ c ];
  c

(* [sup] becomes a direct superclass of [sub]: [sub] and everything below
   it inherit [sup] and its ancestors. *)
let link t ~sup ~sub =
  let up = IS.add sup.id sup.anc in
  List.iter
    (fun c -> if c.id = sub.id || IS.mem sub.id c.anc then c.anc <- IS.union c.anc up)
    t.classes

let unrelated a b = a.id <> b.id && (not (IS.mem a.id b.anc)) && not (IS.mem b.id a.anc)

let add_attribute t name step =
  let default = Value.Int (Random.State.int t.rng 100) in
  Change.Add_attribute
    { cls = name; def = Change.attr ~default (Printf.sprintf "a%d" step) Value.TInt }

(* The next change of the chain, with the model already updated. *)
let next t =
  let step = t.step in
  t.step <- step + 1;
  let n = List.length t.classes in
  let cur = List.nth t.classes (t.cursor mod n) in
  t.cursor <- t.cursor + 1;
  match List.nth block_kinds (step mod List.length block_kinds) with
  | Attr -> add_attribute t cur.name step
  | Meth ->
    let k = Random.State.int t.rng 100 in
    let body =
      if has_age t cur then Expr.Arith (Expr.Add, Expr.attr "age", Expr.int k)
      else Expr.int k
    in
    Change.Add_method { cls = cur.name; method_name = Printf.sprintf "m%d" step; body }
  | Class ->
    let c = fresh t (Printf.sprintf "K%d" step) IS.empty in
    Change.Add_class { cls = c.name; connected_to = None }
  | Edge -> (
    match youngest (List.filter (unrelated cur) t.classes) with
    | None -> add_attribute t cur.name step
    | Some sup ->
      link t ~sup ~sub:cur;
      Change.Add_edge { sup = sup.name; sub = cur.name })
  | Insert -> (
    (* [Insert_class] replays the anchor's derivation and re-derives what
       lies below the new edge; once history is deep one such change can
       take tens of seconds, on some seeds only. The chain inserts only
       in its first block, between a class and a leaf below it, so every
       seed's chain stays on the same footing. *)
    let below c = List.filter (fun d -> IS.mem c.id d.anc) t.classes in
    let leaves = List.filter (fun c -> below c = []) (below cur) in
    match youngest leaves with
    | Some sub when step < List.length block_kinds ->
      let mid = fresh t (Printf.sprintf "I%d" step) (IS.add cur.id cur.anc) in
      link t ~sup:mid ~sub;
      Change.Insert_class { cls = mid.name; sup = cur.name; sub = sub.name }
    | _ -> add_attribute t cur.name step)
  | Partition ->
    (* the first [age] holder at or after the cursor; the [ssn] conjunct
       (always true) keeps every partition predicate distinct, so the
       classifier never folds a partition into an existing class *)
    let rotated =
      List.filteri (fun i _ -> i >= t.cursor mod n) t.classes
      @ List.filteri (fun i _ -> i < t.cursor mod n) t.classes
    in
    let target = List.find (has_age t) (cur :: rotated) in
    let threshold = 18 + Random.State.int t.rng 50 in
    let up = IS.add target.id target.anc in
    let yes = fresh t (Printf.sprintf "P%dt" step) up in
    let no = fresh t (Printf.sprintf "P%df" step) up in
    Change.Partition_class
      {
        cls = target.name;
        predicate = Expr.(attr "age" >= int threshold && attr "ssn" > int (-step));
        into_true = yes.name;
        into_false = no.name;
      }
  | Rename ->
    let old_name = cur.name in
    cur.name <- Printf.sprintf "R%d" step;
    Change.Rename_class { old_name; new_name = cur.name }

let chain ~seed n =
  let t = create ~seed in
  List.init n (fun _ -> next t)
