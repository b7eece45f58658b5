module Oid = Tse_store.Oid

type cid = Oid.t

type derivation =
  | Select of cid * Expr.t
  | Hide of string list * cid
  | Refine of Prop.t list * cid
  | Refine_from of { src : cid; prop_name : string; target : cid }
  | Union of cid * cid
  | Intersect of cid * cid
  | Difference of cid * cid

type kind = Base | Virtual of derivation

type t = {
  cid : cid;
  mutable name : string;
  kind : kind;
  mutable local_props : Prop.t list;
  mutable supers : cid list;
  mutable subs : cid list;
}

module Unsafe = struct
  let make ~cid ~name ~kind ~local_props ~supers ~subs =
    { cid; name; kind; local_props; supers; subs }

  let set_name t name = t.name <- name
  let set_local_props t ps = t.local_props <- ps
  let set_supers t cs = t.supers <- cs
  let set_subs t cs = t.subs <- cs
end

let is_base t = match t.kind with Base -> true | Virtual _ -> false
let is_virtual t = not (is_base t)

let derivation t =
  match t.kind with Base -> None | Virtual d -> Some d

let sources t =
  match t.kind with
  | Base -> []
  | Virtual d -> begin
    match d with
    | Select (c, _) | Hide (_, c) | Refine (_, c) -> [ c ]
    | Refine_from { src; target; _ } -> [ target; src ]
    | Union (a, b) | Intersect (a, b) | Difference (a, b) -> [ a; b ]
  end

let local_prop t name =
  List.find_opt (fun (p : Prop.t) -> String.equal p.name name) t.local_props

let has_local_prop t name = Option.is_some (local_prop t name)

let derivation_equal a b =
  match a, b with
  | Select (c1, e1), Select (c2, e2) -> Oid.equal c1 c2 && Expr.equal e1 e2
  | Hide (ps1, c1), Hide (ps2, c2) ->
    Oid.equal c1 c2
    && List.sort String.compare ps1 = List.sort String.compare ps2
  | Refine (ps1, c1), Refine (ps2, c2) ->
    Oid.equal c1 c2
    && List.length ps1 = List.length ps2
    && List.for_all2 Prop.signature_equal ps1 ps2
  | Refine_from a, Refine_from b ->
    Oid.equal a.src b.src && Oid.equal a.target b.target
    && String.equal a.prop_name b.prop_name
  | Union (a1, a2), Union (b1, b2) | Intersect (a1, a2), Intersect (b1, b2) ->
    (* union and intersect are commutative *)
    (Oid.equal a1 b1 && Oid.equal a2 b2) || (Oid.equal a1 b2 && Oid.equal a2 b1)
  | Difference (a1, a2), Difference (b1, b2) -> Oid.equal a1 b1 && Oid.equal a2 b2
  | ( ( Select _ | Hide _ | Refine _ | Refine_from _ | Union _ | Intersect _
      | Difference _ ),
      _ ) ->
    false

let pp_derivation ppf = function
  | Select (c, e) -> Format.fprintf ppf "select from %a where %a" Oid.pp c Expr.pp e
  | Hide (ps, c) ->
    Format.fprintf ppf "hide %s from %a" (String.concat ", " ps) Oid.pp c
  | Refine (ps, c) ->
    Format.fprintf ppf "refine %a for %a"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
         Prop.pp)
      ps Oid.pp c
  | Refine_from { src; prop_name; target } ->
    Format.fprintf ppf "refine %a:%s for %a" Oid.pp src prop_name Oid.pp target
  | Union (a, b) -> Format.fprintf ppf "union(%a, %a)" Oid.pp a Oid.pp b
  | Intersect (a, b) -> Format.fprintf ppf "intersect(%a, %a)" Oid.pp a Oid.pp b
  | Difference (a, b) -> Format.fprintf ppf "difference(%a, %a)" Oid.pp a Oid.pp b

let pp ppf t =
  let kind =
    match t.kind with
    | Base -> "base"
    | Virtual d -> Format.asprintf "virtual <- %a" pp_derivation d
  in
  Format.fprintf ppf "@[<v 2>%s (%a, %s)@ props: %a@]" t.name Oid.pp t.cid kind
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ")
       Prop.pp)
    t.local_props
