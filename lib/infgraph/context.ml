module D = Datalog

(* Per-arc verdicts. A context built by [of_db] starts with every blockable
   arc [unknown] and probes it against the database the first time it is
   read; the eager constructors start fully known. *)
let unknown = '\002'
let yes = '\001'
let no = '\000'

type t = {
  g : Graph.t;
  verdict : Bytes.t;
  probe : int -> bool;  (** decides an [unknown] arc *)
  witness : D.Atom.t option array;
      (** per retrieval arc probed unblocked: its first matching fact
          (empty for eager contexts) *)
}

let no_probe _ = invalid_arg "Context: eager context has no probe"

let make g ~unblocked =
  if Array.length unblocked <> Graph.n_arcs g then
    invalid_arg "Context.make: array size mismatch";
  let verdict =
    Bytes.init (Array.length unblocked) (fun id ->
        if (not (Graph.arc g id).Graph.blockable) || unblocked.(id) then yes
        else no)
  in
  { g; verdict; probe = no_probe; witness = [||] }

let all_blocked g = make g ~unblocked:(Array.make (Graph.n_arcs g) false)
let all_unblocked g = make g ~unblocked:(Array.make (Graph.n_arcs g) true)

let of_db g ~query ~db =
  let root_goal =
    match (Graph.node g (Graph.root g)).Graph.goal with
    | Some goal -> goal
    | None -> invalid_arg "Context.of_db: graph has no goal atoms"
  in
  let subst =
    match D.Subst.unify_atoms root_goal query D.Subst.empty with
    | Some s -> s
    | None ->
      invalid_arg
        (Format.asprintf "Context.of_db: query %a does not match root goal %a"
           D.Atom.pp query D.Atom.pp root_goal)
  in
  let n = Graph.n_arcs g in
  let witness = Array.make n None in
  let probe id =
    let a = Graph.arc g id in
    match (a.Graph.kind, a.Graph.pattern) with
    | Graph.Retrieval, Some pattern -> (
      match D.Database.first_match db (D.Subst.apply_atom subst pattern) with
      | Some (fact, _) ->
        witness.(id) <- Some fact;
        true
      | None -> false)
    | Graph.Reduction, Some head ->
      let goal =
        match (Graph.node g a.Graph.src).Graph.goal with
        | Some goal -> D.Subst.apply_atom subst goal
        | None -> invalid_arg "Context.of_db: source node has no goal"
      in
      D.Subst.unify_atoms head goal D.Subst.empty <> None
    | _, None ->
      invalid_arg
        (Printf.sprintf "Context.of_db: blockable arc %s has no pattern"
           a.Graph.label)
  in
  let verdict =
    Bytes.init n (fun id ->
        if (Graph.arc g id).Graph.blockable then unknown else yes)
  in
  { g; verdict; probe; witness }

let unblocked t id =
  let v = Bytes.get t.verdict id in
  if v = unknown then begin
    let u = t.probe id in
    Bytes.set t.verdict id (if u then yes else no);
    u
  end
  else v = yes

let blocked t id = not (unblocked t id)

let witness t id =
  if id < Array.length t.witness && unblocked t id then t.witness.(id)
  else None

(* Probe every arc not read yet; the readers below see the whole context. *)
let force t =
  for id = 0 to Bytes.length t.verdict - 1 do
    ignore (unblocked t id)
  done

let unblocked_set t =
  force t;
  let acc = ref [] in
  for id = Bytes.length t.verdict - 1 downto 0 do
    if Bytes.get t.verdict id = yes then acc := id :: !acc
  done;
  !acc

let equal a b =
  force a;
  force b;
  Bytes.equal a.verdict b.verdict

let pp g ppf t =
  force t;
  let blocked_labels =
    List.filter_map
      (fun a ->
        if Bytes.get t.verdict a.Graph.arc_id = yes then None
        else Some a.Graph.label)
      (Graph.arcs g)
  in
  Format.fprintf ppf "{blocked: %s}" (String.concat ", " blocked_labels)

module Partial = struct
  type full = t

  type t = { g : Graph.t; state : bool option array }

  let unknown g = { g; state = Array.make (Graph.n_arcs g) None }

  let observe t ~arc_id ~unblocked =
    match t.state.(arc_id) with
    | None -> t.state.(arc_id) <- Some unblocked
    | Some prev ->
      if prev <> unblocked then
        invalid_arg "Context.Partial.observe: conflicting observation"

  let known t id = t.state.(id)

  let pessimistic t =
    make t.g
      ~unblocked:
        (Array.mapi
           (fun id st ->
             match st with
             | Some v -> v
             | None -> not (Graph.arc t.g id).Graph.blockable)
           t.state)

  let optimistic t =
    make t.g
      ~unblocked:
        (Array.map (fun st -> match st with Some v -> v | None -> true) t.state)

  let consistent t (full : full) =
    force full;
    let ok = ref true in
    Array.iteri
      (fun id st ->
        match st with
        | Some v -> if unblocked full id <> v then ok := false
        | None -> ())
      t.state;
    !ok
end
